"""The four workloads: their graph ladders, spec documents and operations.

Every graph is written as a JSON spec file in the program's own input
format, so each operation starts from a file the way a user's run does.
An operation is one ``alltoall`` command line plus the artifacts it leaves;
a pass runs all of a workload's operations once, in an order drawn from the
benchmark's seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import permutations, product


# ---------------------------------------------------------------------------
# spec documents
# ---------------------------------------------------------------------------


def hypercube(k: int) -> dict:
    """Q_k: Z2^k with the unit vectors as generators."""
    gens = [[1 if i == j else 0 for i in range(k)] for j in range(k)]
    return {"group": {"kind": "product", "factors": [{"kind": "cyclic", "modulus": 2}] * k},
            "generators": gens}


def star(n: int) -> dict:
    """star_n: S_n generated by the transpositions (1 i), as 0-based image arrays."""
    gens = []
    for i in range(1, n):
        image = list(range(n))
        image[0], image[i] = i, 0
        gens.append(image)
    return {"group": {"kind": "permutation", "degree": n}, "generators": gens}


def circulant(m: int, jumps: list[int]) -> dict:
    return {"group": {"kind": "cyclic", "modulus": m}, "generators": list(jumps)}


def torus(m: int) -> dict:
    """Z_m x Z_m with the four unit steps +-1 in each coordinate."""
    return {"group": {"kind": "product", "factors": [{"kind": "cyclic", "modulus": m}] * 2},
            "generators": [[1, 0], [m - 1, 0], [0, 1], [0, m - 1]]}


def kautz(d: int, n: int) -> dict:
    """Kautz digraph K(d, n) as a raw digraph.

    Vertices are the words of length n over d+1 letters with no letter
    repeated twice in a row, numbered in lexicographic order; s -> s[1:] + x
    for every letter x other than s's last.
    """
    verts = [w for w in product(range(d + 1), repeat=n) if all(a != b for a, b in zip(w, w[1:]))]
    index = {w: i for i, w in enumerate(verts)}
    arcs = [[index[w], index[w[1:] + (x,)]] for w in verts for x in range(d + 1) if x != w[-1]]
    return {"digraph": {"n": len(verts), "arcs": arcs}}


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Op:
    """One or more command lines, run in-process through alltoall.cli.main.

    Each command line holds "{src}" and "{out}" placeholders, filled in with
    the graph's source arguments and its artifact directory.  A round trip
    is a chain of command lines run in order, each stage reading back the
    artifacts of the one before.
    """

    graph: str
    kind: str  # "bounds", "words", "pipeline", "schedule" or "roundtrip"
    argvs: tuple[tuple[str, ...], ...]


def petersen() -> dict:
    """The Petersen graph as the program's builtin defines it: cosets of the {1,2} stabilizer in S5."""
    stabilizer = [list(p) for p in permutations(range(5)) if {p[0], p[1]} == {0, 1}]
    gens = [[2, 3, 0, 1, 4], [2, 4, 0, 3, 1], [3, 4, 2, 0, 1]]  # (1 3)(2 4), (1 3)(2 5), (1 4)(2 5)
    return {"group": {"kind": "permutation", "degree": 5}, "generators": gens, "subgroup": stabilizer}


@dataclass(frozen=True)
class Graph:
    """A graph of the ladder; a builtin is named on the command line, its spec kept for the checker."""

    name: str
    spec: dict
    builtin: str | None = None

    def source_args(self, spec_path: str) -> tuple[str, ...]:
        return ("--builtin", self.builtin) if self.builtin else ("--spec", spec_path)


@dataclass(frozen=True)
class Workload:
    name: str
    graphs: tuple[Graph, ...]
    ops: tuple[Op, ...]

    def graph(self, name: str) -> Graph:
        return next(g for g in self.graphs if g.name == name)

    def pass_order(self, rng: random.Random) -> list[Op]:
        order = list(self.ops)
        rng.shuffle(order)
        return order


def _bounds(g: str) -> Op:
    return Op(g, "bounds", (("bounds", "{src}", "--out", "{out}/bounds.json"),))


def _words(g: str) -> Op:
    return Op(g, "words", (("words", "{src}", "--out", "{out}/words.json"),))


def _pipeline(g: str, *extra: str) -> Op:
    return Op(g, "pipeline", (("pipeline", "{src}", "--outdir", "{out}", *extra),))


def _schedule(g: str) -> Op:
    return Op(g, "schedule", (("schedule", "{src}", "--csv", "{out}/schedule.csv", "--out", "{out}/schedule.json"),))


def _roundtrip(g: str) -> Op:
    return Op(g, "roundtrip", (
        ("factorize", "{src}", "--out", "{out}/factorization.json"),
        ("schedule", "{src}", "--factorization", "{out}/factorization.json", "--method", "greedy",
         "--csv", "{out}/schedule.csv", "--out", "{out}/schedule.json"),
        ("simulate", "{src}", "--factorization", "{out}/factorization.json",
         "--schedule", "{out}/schedule.csv", "--trace", "{out}/trace.csv", "--out", "{out}/verdict.json"),
    ))


def _sizing() -> Workload:
    graphs = (
        Graph("q10", hypercube(10)),
        Graph("star6", star(6)),
        Graph("z1024-1-32", circulant(1024, [1, 32])),
        Graph("torus32x32", torus(32)),
    )
    ops = tuple(op for g in graphs for op in (_bounds(g.name), _words(g.name)))
    return Workload("sizing", graphs, ops)


def _exchange() -> Workload:
    graphs = (
        Graph("q8", hypercube(8)),
        Graph("star5", star(5)),
        Graph("z256-1-16", circulant(256, [1, 16])),
    )
    return Workload("exchange", graphs, tuple(_pipeline(g.name, "--method", "greedy") for g in graphs))


def _roundtrip_workload() -> Workload:
    graphs = (
        Graph("q7", hypercube(7)),
        Graph("star5", star(5)),
        Graph("z128-1-16", circulant(128, [1, 16])),
    )
    return Workload("roundtrip", graphs, tuple(_roundtrip(g.name) for g in graphs))


def _exact() -> Workload:
    graphs = (
        Graph("q4", hypercube(4)),
        Graph("q5", hypercube(5)),
        Graph("star4", star(4)),
        Graph("z64-1-8", circulant(64, [1, 8])),
        Graph("z81-1-9", circulant(81, [1, 9])),
        Graph("z7-124", circulant(7, [1, 2, 4]), builtin="z7-124"),
        Graph("q3", hypercube(3), builtin="q3"),
        Graph("petersen", petersen(), builtin="petersen"),
        Graph("kautz-2-2", kautz(2, 2)),
        Graph("kautz-3-2", kautz(3, 2)),
    )
    # past ~500 letters the exact search recurses deeper than the interpreter
    # allows; these two are scheduled alone, so that the fix which lets them
    # succeed adds only their search time, not a replay
    deep = (Graph("z100-1-10", circulant(100, [1, 10])), Graph("z128-1-16", circulant(128, [1, 16])))
    ops = tuple(_pipeline(g.name) for g in graphs) + tuple(_schedule(g.name) for g in deep)
    return Workload("exact", graphs + deep, ops)


WORKLOADS = {w.name: w for w in (_sizing(), _exchange(), _roundtrip_workload(), _exact())}
