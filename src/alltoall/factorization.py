"""Decomposing regular digraphs into vertex bijections, and spanning word lists.

A d-regular digraph always splits into d arc-disjoint 1-factors (spanning
subgraphs with in- and out-degree 1, i.e. vertex bijections): send each arc
(u, v) to the bipartite graph on tails and heads and peel off d perfect
matchings.  A 1-factorization is its successor table alone: factors[j][u]
is where factor j sends vertex u.  A spanning factorization additionally
carries one word per vertex over the factor alphabet such that walking the
words from ANY base hits every vertex exactly once -- the property that lets
one timed word list serve all sources of an all-to-all exchange
simultaneously.  There is no type for the pair: a Cayley graph's generator
table transposed, tuple(zip(*g.out)), with a words.bfs_word_set word set
is one, and the search returns its factors and words side by side.  The
constructors establish these properties and do not re-check them;
verify_spanning checks a factorization read from outside.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from .errors import InputError
from .graphs import Digraph, regular_degree
from .layers import distances_from
from .simulate import _walk_trie

DEFAULT_SEARCH_BUDGET = 1_000_000


Factors = tuple[tuple[int, ...], ...]  # factors[j][u]: where factor j sends vertex u


def validate_one_factorization(g: Digraph, factors: Sequence[Sequence[int]]) -> None:
    """Raise InputError unless the factors are bijections that partition g's arc multiset.

    Every factor must be a bijection on g's vertices, and at every vertex
    the factors' heads must equal g's out-heads as a multiset, so parallel
    arcs and loops count with their multiplicity.
    """
    n = g.vertex_count
    for j, succ in enumerate(factors):
        if len(succ) != n or sorted(succ) != list(range(n)):
            raise InputError(f"factor {j} is not a bijection on {n} vertices: {succ}")
    for u in range(n):
        heads = sorted(succ[u] for succ in factors)
        if heads != sorted(g.out[u]):
            raise InputError(f"the factors send vertex {u} to {heads}, its out-arcs go to {sorted(g.out[u])}")


def _perfect_matching(n: int, adj: list[list[tuple[int, int]]]) -> list[int] | None:
    """One perfect matching in the tails/heads bipartite graph.

    adj[u] lists (arc id, head) options for tail u.  Classic augmenting-path
    matching, tails and arcs scanned in index order, so the result is
    deterministic.  Returns the matched arc id per tail, or None.
    """
    match_head: dict[int, int] = {}  # head -> arc id
    match_tail: list[int] = [-1] * n
    owner_tail: dict[int, int] = {}

    def augment(root: int) -> bool:
        # depth first on an explicit stack: frames hold each tail on the path
        # with its unscanned options, path the (tail, arc id, head) steps
        # taken down to the top frame
        seen: set[int] = set()
        frames = [(root, iter(adj[root]))]
        path: list[tuple[int, int, int]] = []
        while frames:
            u, options = frames[-1]
            for arc_id, v in options:
                if v in seen:
                    continue
                seen.add(v)
                path.append((u, arc_id, v))
                if v not in match_head:
                    for tail, arc, head in path:
                        match_head[head] = arc
                        owner_tail[head] = tail
                        match_tail[tail] = arc
                    return True
                frames.append((owner_tail[v], iter(adj[owner_tail[v]])))
                break
            else:
                frames.pop()
                if path:
                    path.pop()
        return False

    for u in range(n):
        if not augment(u):
            return None
    return match_tail


def one_factorize(g: Digraph) -> Factors:
    """Split a d-regular digraph into d factors by repeated perfect matching.

    Each round matches every tail to a distinct head using only arcs not yet
    claimed; regularity guarantees a perfect matching exists at every round
    (the remaining bipartite graph stays regular); the d rounds claim every
    arc once, so the factors partition g's arc multiset.
    """
    d = regular_degree(g)
    n = g.vertex_count
    arcs = g.arcs()
    remaining: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for a, (u, v, _) in enumerate(arcs):
        remaining[u].append((a, v))
    factors: list[tuple[int, ...]] = []
    for _ in range(d):
        matched = _perfect_matching(n, remaining)
        if matched is None:
            raise InputError(
                "no perfect matching among remaining arcs; the input cannot "
                "have been regular"
            )
        succ = [0] * n
        for u, arc_id in enumerate(matched):
            succ[u] = arcs[arc_id][1]
            remaining[u] = [(a, v) for a, v in remaining[u] if a != arc_id]
        factors.append(tuple(succ))
    return tuple(factors)


# ---------------------------------------------------------------------------
# spanning factorizations
# ---------------------------------------------------------------------------


def walk_word(factors: Sequence[Sequence[int]], start: int, word: Sequence[int]) -> int:
    """Endpoint of following `word`'s factors in order from `start`."""
    v = start
    for j in word:
        v = factors[j][v]
    return v


def factor_digraph(factors: Sequence[Sequence[int]]) -> Digraph:
    """The factorization's arc layout: out-position j at each vertex is factor j's arc.

    Same arc multiset as the factorized graph (the factors partition it),
    re-ordered so that factor indices work as out-arc positions; packets
    over factor words replay against this layout.
    """
    return Digraph(out=tuple(zip(*factors)))


def verify_spanning(factors: Sequence[Sequence[int]], words: Sequence[Sequence[int]], n: int) -> None:
    """Raise InputError at a bad word, or at the first pair of words that end together from some base.

    The words are walked once from all bases together, as the replay walks
    them: a prefix they share is walked once.  A base whose ends collide
    names its first collision from its column of that walk's ends.
    """
    if len(words) != n:
        raise InputError(f"word list has {len(words)} words for {n} vertices; endpoints cannot cover the graph")
    d = len(factors)
    for i, word in enumerate(words):
        for j in word:
            if not (0 <= j < d):
                raise InputError(f"word {i} uses factor {j}, out of range")
    ends = _walk_trie([tuple(word) for word in words], factors, n)
    for base in range(n):
        column = ends[base::n]  # column[i]: where word i takes base
        if len(set(column)) == n:
            continue
        seen: dict[int, int] = {}
        for i, end in enumerate(column):
            if end in seen:
                raise InputError(f"words {seen[end]} and {i} both end at {end} from base {base}")
            seen[end] = i


# ---------------------------------------------------------------------------
# search for spanning factorizations of general regular digraphs
# ---------------------------------------------------------------------------


@dataclass
class SearchResult:
    """Outcome of search_spanning_factorization.

    factors and words are the spanning factorization found, words[v] the
    word for vertex v (words[0] is empty), both None on failure; reason
    says why ("budget" or "exhausted"); best_depth reports the deepest word
    prefix ever assigned, factorizations how many 1-factorizations were
    word-searched, nodes the total search nodes spent.
    """

    factors: Factors | None
    words: tuple[tuple[int, ...], ...] | None
    nodes: int
    factorizations: int
    best_depth: int
    reason: str


def _iter_factorizations(g: Digraph, d: int) -> Iterator[Factors]:
    """All 1-factorizations, lazily, without repeating factor-order permutations.

    Factors are produced in increasing order of the arc they claim at vertex
    0, which picks exactly one representative from each permutation class.
    Matchings are enumerated by assigning tails in index order.
    """
    n = g.vertex_count
    arcs = g.arcs()
    by_tail: list[list[int]] = [[] for _ in range(n)]
    for a, (u, _, _) in enumerate(arcs):
        by_tail[u].append(a)
    arc_used = [False] * len(arcs)

    def matchings(head_used: list[bool], min_first: int) -> Iterator[list[int]]:
        # depth first over tails in index order, on an explicit stack: picked
        # holds the arcs of tails 0..u-1, and tried[u] counts tail u's options taken
        picked: list[int] = []
        tried = [0] * (n + 1)
        u = 0
        while u >= 0:
            if u < n and tried[u] < len(by_tail[u]):
                a = by_tail[u][tried[u]]
                tried[u] += 1
                head = arcs[a][1]
                if not (arc_used[a] or head_used[head] or (u == 0 and a <= min_first)):
                    head_used[head] = True
                    picked.append(a)
                    u += 1
                    tried[u] = 0
                continue
            if u == n:
                yield list(picked)
            # tail u is out of options (or every tail is matched): release tail u-1's arc
            u -= 1
            if u >= 0:
                head_used[arcs[picked.pop()][1]] = False

    def build(level: int, prev_first: int, chosen: list[list[int]]) -> Iterator[Factors]:
        if level == d:
            # a matching picks tails in index order, so arc picked[u] leaves tail u
            yield tuple(tuple(arcs[a][1] for a in picked) for picked in chosen)
            return
        head_used = [False] * n
        for picked in matchings(head_used, prev_first):
            for a in picked:
                arc_used[a] = True
            chosen.append(picked)
            yield from build(level + 1, picked[0], chosen)
            chosen.pop()
            for a in picked:
                arc_used[a] = False

    yield from build(0, -1, [])


def _words_by_end(factors: Sequence[Sequence[int]], length: int, levels: list) -> dict[int, list[tuple[int, ...]]]:
    """Every factor word of `length` letters from vertex 0, grouped by the vertex it ends at.

    Each group keeps the words in lexicographic order.  levels[L] holds
    length L as its (word, end) pairs in lexicographic order and as those
    groups; a length is built the first time it is asked for, by extending
    each word of the length below it by every letter in turn.
    """
    while len(levels) <= length:
        pairs = [(word + (j,), succ[end]) for word, end in levels[-1][0]
                 for j, succ in enumerate(factors)] if levels else [((), 0)]
        by_end: dict[int, list[tuple[int, ...]]] = {}
        for word, end in pairs:
            by_end.setdefault(end, []).append(word)
        levels.append((pairs, by_end))
    return levels[length][1]


def search_spanning_factorization(
    g: Digraph,
    budget: int = DEFAULT_SEARCH_BUDGET,
    max_slack: int = 2,
) -> SearchResult:
    """Backtracking search for a spanning factorization of a regular digraph.

    Outer loop: total extra word length (0, 1, ... max_slack), so short word
    lists are found before longer ones, and within it the 1-factorizations,
    enumerated lazily.  Inner search, depth first on an explicit stack:
    assign words vertex by vertex in (distance, index) order, keeping
    per-base endpoint sets and failing a candidate the moment any base sees
    a repeated endpoint, so a complete assignment spans from every base
    without a further check.  A vertex v's candidates are the words that
    end at v, shortest first (length dist[v], then each extra letter the
    slack left allows), each length listed once per factorization.  The
    budget counts candidate-word attempts across everything; exhaustion
    reports failure rather than nonexistence.
    """
    if max_slack < 0:
        raise InputError(f"max_slack must be at least 0, got {max_slack}")
    d = regular_degree(g)
    n = g.vertex_count
    # the factors partition g's arcs, so distances over the factor alphabet
    # coincide with graph distances; one BFS serves every factorization
    dist = distances_from(g, 0)
    order = sorted(range(1, n), key=lambda v: (dist[v], v))
    nodes = factorizations = best_depth = 0
    factors = words = None
    reason = "exhausted"
    for slack, fact in ((s, f) for s in range(max_slack + 1) for f in _iter_factorizations(g, d)):
        factorizations += 1
        levels: list = []
        ends: list[set[int]] = [{b} for b in range(n)]  # empty word's endpoint
        chosen: list[tuple[int, ...]] = [()] * n
        # frames[pos] holds order[pos]'s untried candidates and the slack left
        # to it, placed[pos] the endpoints of the word it holds while deeper
        # vertices are tried
        frames: list = []
        placed: list[list[int]] = []
        slack_left = slack
        while len(placed) < len(order):
            pos = len(placed)
            v = order[pos]
            if len(frames) == pos:  # order[pos] is reached from a new prefix: list its candidates
                frames.append((iter([word for length in range(dist[v], dist[v] + slack_left + 1)
                                     for word in _words_by_end(fact, length, levels).get(v, ())]), slack_left))
            options, slack_left = frames[pos]
            word = next(options, None)
            if word is None:  # take back the word before it, or give up this factorization
                frames.pop()
                if not placed:
                    break
                for seen, end in zip(ends, placed.pop()):
                    seen.discard(end)
                continue
            if nodes >= budget:
                reason = "budget"
                break
            nodes += 1
            endpoints = [walk_word(fact, b, word) for b in range(n)]
            if any(map(set.__contains__, ends, endpoints)):
                continue
            for seen, end in zip(ends, endpoints):
                seen.add(end)
            chosen[v] = word
            placed.append(endpoints)
            best_depth = max(best_depth, pos + 1)
            slack_left -= len(word) - dist[v]
        if len(placed) == len(order):
            factors, words, reason = fact, tuple(chosen), ""
        if reason != "exhausted":
            break
    return SearchResult(
        factors=factors, words=words, nodes=nodes, factorizations=factorizations,
        best_depth=best_depth, reason=reason,
    )
