"""Independent checks of the program's artifacts.

Nothing here imports the program.  Each graph is rebuilt from its spec
document with plain integer and permutation arithmetic and a BFS of its
own; schedules are replayed packet by packet against that graph.  The
vertex numbering is the program's documented one: breadth-first discovery
order from the identity coset, generators scanned in input order.

Every check raises CheckError on the first violation; on success it returns
the verified (tau, psi_W) pair of the operation, tau None where nothing was
scheduled.
"""

from __future__ import annotations

import csv
import json
from collections import deque
from math import comb
from pathlib import Path


class CheckError(AssertionError):
    """An artifact disagrees with the independent computation."""


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckError(msg)


# ---------------------------------------------------------------------------
# graphs from spec documents
# ---------------------------------------------------------------------------


class Net:
    """out[u][j] is the head of u's j-th out-arc; dist[v] is the distance from 0."""

    def __init__(self, out: list[list[int]]):
        self.out = out
        self.n = len(out)
        self.d = len(out[0])
        self.dist = bfs(out, 0)
        _require(min(self.dist) >= 0, "graph is not strongly connected from vertex 0")
        self.layers = [0] * (max(self.dist) + 1)
        for k in self.dist:
            self.layers[k] += 1

    @property
    def theta(self) -> int:
        work = sum(k * nk for k, nk in enumerate(self.layers))
        return -(-work // self.d)

    @property
    def letters(self) -> int:
        """Total length of any shortest word set: one word per non-base vertex."""
        return sum(self.dist)


def bfs(out: list[list[int]], base: int) -> list[int]:
    dist = [-1] * len(out)
    dist[base] = 0
    queue = deque([base])
    while queue:
        u = queue.popleft()
        for v in out[u]:
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def _element_ops(desc: dict):
    """(identity, compose, parse) for a group descriptor; compose(a, b) applies a, then b."""
    kind = desc["kind"]
    if kind == "cyclic":
        m = desc["modulus"]
        return 0, (lambda a, b: (a + b) % m), (lambda x: x % m)
    if kind == "permutation":
        k = desc["degree"]
        return tuple(range(k)), (lambda a, b: tuple(b[x] for x in a)), tuple
    if kind == "product":
        parts = [_element_ops(f) for f in desc["factors"]]
        ident = tuple(p[0] for p in parts)

        def compose(a, b):
            return tuple(p[1](x, y) for p, x, y in zip(parts, a, b))

        def parse(x):
            return tuple(p[2](y) for p, y in zip(parts, x))

        return ident, compose, parse
    raise CheckError(f"unknown group kind {kind!r}")


def build_net(spec: dict) -> Net:
    if "digraph" in spec:
        body = spec["digraph"]
        out: list[list[int]] = [[] for _ in range(body["n"])]
        for u, v in body["arcs"]:
            out[u].append(v)
        return Net(out)
    ident, compose, parse = _element_ops(spec["group"])
    gens = [parse(g) for g in spec["generators"]]
    sub = [parse(h) for h in spec.get("subgroup", [])] or [ident]

    def coset(g):
        return frozenset(compose(g, h) for h in sub)

    start = coset(ident)
    reps = [ident]
    index = {start: 0}
    out = []
    queue = deque([0])
    while queue:
        u = queue.popleft()
        row = []
        for gen in gens:
            g = compose(reps[u], gen)
            c = coset(g)
            if c not in index:
                index[c] = len(reps)
                reps.append(g)
                queue.append(index[c])
            row.append(index[c])
        out.append(row)
    return Net(out)


def hypercube_dimension(spec: dict) -> int | None:
    group = spec.get("group", {})
    if group.get("kind") == "product" and all(
        f == {"kind": "cyclic", "modulus": 2} for f in group["factors"]
    ):
        k = len(group["factors"])
        if sorted(map(tuple, spec["generators"])) == sorted(
            tuple(int(i == j) for i in range(k)) for j in range(k)
        ):
            return k
    return None


# ---------------------------------------------------------------------------
# artifacts
# ---------------------------------------------------------------------------


def _read_json(path: Path) -> dict:
    _require(path.is_file(), f"missing artifact {path.name}")
    return json.loads(path.read_text(encoding="utf-8"))


def check_bounds(net: Net, spec: dict, doc: dict) -> None:
    k = hypercube_dimension(spec)
    if k is not None:
        _require(net.layers == [comb(k, i) for i in range(k + 1)], f"Q{k} layers {net.layers} are not binomial")
        _require(net.theta == 2 ** (k - 1), f"Q{k} theta {net.theta} is not 2^(k-1)")
    got = (doc["P"], doc["d"], doc["D"], doc["n"], doc["theta"])
    want = (net.n, net.d, len(net.layers) - 1, net.layers, net.theta)
    _require(got == want, f"bounds report P,d,D,n,theta={got}, independent BFS gives {want}")


def check_words(net: Net, words: dict[int, tuple[int, ...]]) -> list[int]:
    """Every non-base vertex has one shortest word from 0; returns letter counts."""
    _require(set(words) == set(range(1, net.n)), "words must cover exactly the non-base vertices")
    counts = [0] * net.d
    for target, word in words.items():
        v = 0
        for j in word:
            _require(0 <= j < net.d, f"word for {target} uses generator {j}")
            v = net.out[v][j]
            counts[j] += 1
        _require(v == target, f"word {word} walks from 0 to {v}, not {target}")
        _require(len(word) == net.dist[target], f"word for {target} has length {len(word)}, distance is {net.dist[target]}")
    return counts


def check_words_doc(net: Net, doc: dict) -> int:
    words = {int(k): tuple(w) for k, w in doc["words"].items()}
    counts = check_words(net, words)
    _require(doc["occurrences"] == counts, f"occurrences {doc['occurrences']} != recount {counts}")
    _require(doc["psi_W"] == max(counts), f"psi_W {doc['psi_W']} != recount {max(counts)}")
    _require(doc["theta"] == net.theta, f"theta {doc['theta']} != {net.theta}")
    return max(counts)


def check_factors(net: Net, factors: list[list[int]]) -> list[list[int]]:
    """The factors are bijections whose union is the graph's arc multiset; returns the arc layout."""
    _require(len(factors) == net.d, f"{len(factors)} factors for degree {net.d}")
    for j, succ in enumerate(factors):
        _require(sorted(succ) == list(range(net.n)), f"factor {j} is not a bijection")
    for u in range(net.n):
        _require(sorted(f[u] for f in factors) == sorted(net.out[u]),
                 f"factors at vertex {u} do not match its out-arcs")
    return [[f[u] for f in factors] for u in range(net.n)]


def read_schedule_csv(path: Path) -> dict[int, list[tuple[int, int]]]:
    """word key -> [(factor, time)] in position order; positions must run 0..len-1."""
    _require(path.is_file(), f"missing artifact {path.name}")
    with path.open(newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    _require(rows and rows[0] == ["word_target", "position", "factor", "time"], "bad schedule header")
    cells: dict[int, dict[int, tuple[int, int]]] = {}
    for row in rows[1:]:
        key, pos, j, t = map(int, row)
        slots = cells.setdefault(key, {})
        _require(pos not in slots, f"word {key} position {pos} appears twice")
        slots[pos] = (j, t)
    out = {}
    for key, slots in cells.items():
        _require(sorted(slots) == list(range(len(slots))), f"word {key} has a gap in its positions")
        out[key] = [slots[i] for i in range(len(slots))]
    return out


def replay(layout: list[list[int]], sched: dict[int, list[tuple[int, int]]]) -> int:
    """Run every word from every base; returns tau after checking the exchange is clean.

    No (slot, tail, arc) may carry two packets, times must rise along every
    word, and every ordered pair must be delivered exactly once.
    """
    n, d = len(layout), len(layout[0])
    tau = 0
    for key, steps in sched.items():
        prev = 0
        for j, t in steps:
            _require(0 <= j < d, f"word {key} uses arc {j}")
            _require(t > prev, f"times do not increase along word {key}")
            prev = t
        tau = max(tau, prev)
    used = bytearray((tau + 1) * n * d)
    for base in range(n):
        reached = bytearray(n)
        reached[base] = 1
        for key, steps in sched.items():
            v = base
            for j, t in steps:
                cell = (t * n + v) * d + j
                _require(not used[cell], f"slot {t} arc ({v}, {j}) carries two packets")
                used[cell] = 1
                v = layout[v][j]
            _require(not reached[v], f"pair ({base}, {v}) is delivered twice")
            reached[v] = 1
        _require(all(reached), f"some pair from base {base} is never delivered")
    return tau


def _trace_rows(path: Path) -> int:
    _require(path.is_file(), f"missing artifact {path.name}")
    with path.open("rb") as fh:
        return sum(1 for _ in fh) - 1


def check_exchange(net: Net, out: Path, *, exact: bool, stdout: str | None) -> tuple[int, int]:
    """A schedule (and, on the factor route, its factorization) replayed from scratch."""
    sched = read_schedule_csv(out / "schedule.csv")
    fact_path = out / "factorization.json"
    if fact_path.is_file():
        fdoc = _read_json(fact_path)
        layout = check_factors(net, fdoc["factors"])
        words = [tuple(w) for w in fdoc["words"]]
        _require(len(words) == net.n and words[0] == (), "factorization must hold one word per vertex, the base's empty")
        for i, w in enumerate(words):
            v = 0
            for j in w:
                v = layout[v][j]
            _require(len(w) == net.dist[v], f"factor word {i} has length {len(w)}, distance is {net.dist[v]}")
        _require({k: tuple(j for j, _ in s) for k, s in sched.items()} == {i: w for i, w in enumerate(words) if w},
                 "schedule words differ from the factorization's words")
    else:
        layout = net.out
        check_words(net, {k: tuple(j for j, _ in s) for k, s in sched.items()})
        words_path = out / "words.json"
        if words_path.is_file():
            wdoc = _read_json(words_path)
            check_words_doc(net, wdoc)
            _require({int(k): tuple(w) for k, w in wdoc["words"].items()} == {k: tuple(j for j, _ in s) for k, s in sched.items()},
                     "schedule words differ from words.json")
    counts = [0] * net.d
    longest = 0
    for steps in sched.values():
        longest = max(longest, len(steps))
        for j, _ in steps:
            counts[j] += 1
    psi = max(counts)
    tau = replay(layout, sched)
    _require(net.theta <= psi <= tau, f"bound chain broken: theta={net.theta} psi_W={psi} tau={tau}")
    if exact:
        _require(tau == max(psi, longest), f"exact schedule tau={tau} misses the floor max(psi_W, longest word)={max(psi, longest)}")
    summary = _read_json(out / "schedule.json")
    _require(summary["makespan"] == tau, f"schedule.json makespan {summary['makespan']} != replayed {tau}")
    _require(summary["bounds"]["theta"] == net.theta and summary["bounds"]["psi_for_W"] == psi,
             f"schedule.json bounds {summary['bounds']} != theta={net.theta} psi_W={psi}")
    verdict_path = out / "verdict.json"
    if verdict_path.is_file():
        verdict = _read_json(verdict_path)
        want = {"tau": tau, "conflicts": 0, "undelivered": 0, "theta": net.theta, "optimal": tau == net.theta}
        _require({k: verdict[k] for k in want} == want, f"verdict {verdict} != replayed {want}")
        if "psi_W" in verdict:
            _require(verdict["psi_W"] == psi, f"verdict psi_W {verdict['psi_W']} != recount {psi}")
        _require(_trace_rows(out / "trace.csv") == net.n * sum(counts),
                 "trace.csv must hold one row per packet hop")
    if stdout is not None:
        line = f"tau={tau} theta={net.theta} psi_W={psi} optimal={str(tau == net.theta).lower()}"
        _require(stdout.strip() == line, f"verdict line {stdout.strip()!r} != {line!r}")
    return tau, psi
