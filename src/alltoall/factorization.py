"""Decomposing regular digraphs into vertex bijections, and spanning word lists.

A d-regular digraph always splits into d arc-disjoint 1-factors (spanning
subgraphs with in- and out-degree 1, i.e. vertex bijections): send each arc
(u, v) to the bipartite graph on tails and heads and peel off d perfect
matchings.  A 1-factorization is its successor table alone: factors[j][u]
is where factor j sends vertex u.  one_factorize finds one in a loop of
augmenting paths and _iter_factorizations lists all in one depth-first
loop, with the factors and order of the recursive forms the tests keep as
references.  A spanning factorization additionally
carries one word per vertex over the factor alphabet such that walking the
words from ANY base hits every vertex exactly once -- the property that lets
one timed word list serve all sources of an all-to-all exchange
simultaneously.  A Cayley graph's generator table transposed,
tuple(zip(*g.out)), with a words.bfs_word_set word set is one; the search
finds one on other graphs, and spanning_plan chooses between the two.  The
constructors establish these properties and do not re-check them, and a
factorization read from outside is judged by the replay alone: words that
do not span leave pairs undelivered, which simulate.run_transpose reports.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple, Sequence

from .errors import InputError, SearchBudgetError
from .graphs import CosetGraph, Digraph, regular_degree
from .layers import LayerProfile
from .words import bfs_word_set

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


def one_factorize(g: Digraph) -> Factors:
    """Split a d-regular digraph into d factors by repeated perfect matching.

    Each round matches every tail to a distinct head using only arcs not yet
    claimed; regularity guarantees a perfect matching exists at every round
    (the remaining bipartite graph stays regular); the d rounds claim every
    arc once, so the factors partition g's arc multiset.  Tails are matched
    in index order by augmenting paths that scan each tail's unclaimed arcs
    in index order, so the result is deterministic.
    """
    d = regular_degree(g)
    n = g.vertex_count
    remaining: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for a, (u, v, _) in enumerate(g.arcs()):
        remaining[u].append((a, v))
    factors: list[tuple[int, ...]] = []
    for _ in range(d):
        owner: dict[int, tuple[int, int]] = {}  # head -> the (tail, arc id) matched to it
        for root in range(n):
            # an augmenting path from root, depth first: frames hold each tail on it with its
            # unscanned options, path the (tail, arc id, head) steps taken down to the top frame
            seen: set[int] = set()
            frames = [(root, iter(remaining[root]))]
            path: list[tuple[int, int, int]] = []
            while frames:
                u, options = frames[-1]
                for arc_id, v in options:
                    if v not in seen:
                        break
                else:  # tail u is out of options: take back the step into it
                    frames.pop()
                    if path:
                        path.pop()
                    continue
                seen.add(v)
                path.append((u, arc_id, v))
                if v not in owner:
                    break
                frames.append((owner[v][0], iter(remaining[owner[v][0]])))
            else:
                raise InputError("no perfect matching among remaining arcs; the input cannot have been regular")
            for u, arc_id, v in path:
                owner[v] = (u, arc_id)
        succ = [0] * n
        for v, (u, arc_id) in owner.items():
            succ[u] = v
            remaining[u] = [(a, w) for a, w in remaining[u] if a != arc_id]
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


# ---------------------------------------------------------------------------
# search for spanning factorizations of general regular digraphs
# ---------------------------------------------------------------------------


class SearchResult(NamedTuple):
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

    One depth-first loop over positions p = j*n + u, where p places factor
    j's arc out of tail u, trying tail u's arcs in index order.  Factors come
    in increasing order of their arc at vertex 0, which picks exactly one
    representative from each permutation class.
    """
    n = g.vertex_count
    by_tail: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for a, (u, v, _) in enumerate(g.arcs()):
        by_tail[u].append((a, v))
    positions = d * n
    # options[p]: the (arc id, head) pairs position p may place; an empty one closes the list
    options = [by_tail[p % n] for p in range(positions)] + [[]]
    taken = [[False] * n for _ in range(d)]  # taken[j][v]: factor j already has an arc into v
    heads_taken = [taken[p // n] for p in range(positions)]
    arc_used = [False] * positions  # a d-regular digraph has d*n arcs
    picked: list[tuple[int, int]] = []  # the (arc id, head) placed at each position below p
    untried = [iter(options[0])] + [None] * positions  # untried[p]: position p's options not yet tried
    p = 0
    while p >= 0:
        if p < positions:
            row = heads_taken[p]
            # a factor's arc at vertex 0 lies above the previous factor's
            low = picked[p - n][0] if p and p % n == 0 else -1
            for a, v in untried[p]:
                if not (arc_used[a] or row[v] or a <= low):
                    arc_used[a] = row[v] = True
                    picked.append((a, v))
                    break
            if len(picked) > p:
                p += 1
                untried[p] = iter(options[p])
                continue
        else:
            heads = [v for _, v in picked]
            yield tuple([tuple(heads[j * n:j * n + n]) for j in range(d)])
        # position p is out of options (or every position is placed): take back position p-1's arc
        p -= 1
        if p >= 0:
            a, v = picked.pop()
            arc_used[a] = heads_taken[p][v] = False


def _words_to(factors: Sequence[Sequence[int]], target: int, lengths: range, layers: list[set[int]],
              pred: list[list[int]]) -> Iterator[tuple[int, ...]]:
    """Factor words from vertex 0 to `target`, lazily: each length of at least 1 in turn, in lexicographic order.

    layers[r] holds the vertices with an r-letter walk to target, grown here
    from layers[0] = {target} and pred, the tails of each vertex's in-arcs.
    A letter is taken only into the layer of the letters left, so every
    prefix completes: a word costs O(length * d) steps however many there are.
    """
    d = len(factors)
    for length in lengths:
        while len(layers) <= length:
            layers.append({u for w in layers[-1] for u in pred[w]})
        word: list[int] = []
        path = [0]  # path[k]: the vertex word[:k] reaches
        letter = 0
        while letter < d or word:
            if letter == d:  # every letter tried after this prefix: take back its last letter
                letter = word.pop() + 1
                path.pop()
                continue
            v = factors[letter][path[-1]]
            if v not in layers[length - len(word) - 1]:
                letter += 1
            elif len(word) + 1 < length:
                word.append(letter)
                path.append(v)
                letter = 0
            else:
                yield (*word, letter)
                letter += 1


def search_spanning_factorization(
    g: Digraph,
    profile: LayerProfile,
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
    end at v, shortest first (length profile.dist[v], then each extra letter
    the slack left allows), listed lazily as the search asks for them.  The
    budget counts candidate-word attempts across everything; exhaustion
    reports failure rather than nonexistence.
    """
    if max_slack < 0:
        raise InputError(f"max_slack must be at least 0, got {max_slack}")
    d = regular_degree(g)
    n = g.vertex_count
    # the factors partition g's arcs, so distances over the factor alphabet
    # coincide with graph distances: the profile's distances serve every factorization
    dist = profile.dist
    order = sorted(range(1, n), key=dist.__getitem__)  # stable, so (distance, index) order
    # g's walks are factor words under every factorization, so one set of layers serves them all
    pred: list[list[int]] = [[] for _ in range(n)]
    for u, v, _ in g.arcs():
        pred[v].append(u)
    layers: dict[int, list[set[int]]] = {}
    nodes = factorizations = best_depth = 0
    factors = words = None
    reason = "exhausted"
    for slack, fact in ((s, f) for s in range(max_slack + 1) for f in _iter_factorizations(g, d)):
        factorizations += 1
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
                lengths = range(dist[v], dist[v] + slack_left + 1)
                frames.append((_words_to(fact, v, lengths, layers.setdefault(v, [{v}]), pred), slack_left))
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


def spanning_plan(g: Digraph, profile: LayerProfile, budget: int = DEFAULT_SEARCH_BUDGET, max_slack: int = 2,
                  search: bool = False) -> tuple[Factors, dict[int, tuple[int, ...]], dict[str, int] | None]:
    """The route every caller schedules: (factors, a word per vertex over them, the search's counters).

    A Cayley graph, unless `search` is set, takes its generators and bfs_word_set's words, and no
    counters.  Any other graph takes the search's result, or raises SearchBudgetError saying why not.
    """
    if not search and isinstance(g, CosetGraph) and g.is_cayley:
        return tuple(zip(*g.out)), bfs_word_set(g, profile), None
    res = search_spanning_factorization(g, profile, budget=budget, max_slack=max_slack)
    if res.factors is None:
        # exhausting one slack leaves larger ones untried, so say which was exhausted
        reason = res.reason if res.reason == "budget" else f"{res.reason} within max_slack {max_slack}"
        raise SearchBudgetError(
            f"no spanning factorization found ({reason}): {res.nodes} nodes over "
            f"{res.factorizations} factorizations, deepest word prefix {res.best_depth}"
        )
    return res.factors, dict(enumerate(res.words)), {"nodes": res.nodes, "factorizations": res.factorizations}
