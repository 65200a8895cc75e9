"""Expand schedules into timed all-pairs paths and replay them step by step.

The replay is the package's oracle: it knows nothing about how a schedule
was built, it just moves packets along their claimed edges slot by slot and
reports every collision and every missing delivery.  Expansion translates a
scheduled word list into per-pair paths: every base vertex runs the same
words, a letter naming a generator of a Cayley graph or a factor of a
spanning factorization alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from . import scheduling
from .errors import InputError
from .graphs import Graph
from .scheduling import Schedule, WordMap

Edge = tuple[int, int]  # (tail vertex, generator/factor index)


@dataclass(frozen=True)
class TimedPath:
    """One packet's route: steps are ((tail, index), time) in travel order."""

    source: int
    dest: int
    steps: tuple[tuple[Edge, int], ...]


@dataclass(frozen=True)
class TransposeTrace:
    """Everything observed during a replay.

    occupancy[t][edge] is the packet that crossed `edge` in slot t (the
    first one, when packets collided).  A clean exchange has no conflicts,
    no undelivered pairs, and every delivery count equal to one.
    """

    horizon: int
    occupancy: dict[int, dict[Edge, tuple[int, int]]]
    conflicts: tuple[tuple[int, Edge, tuple[int, int], tuple[int, int]], ...]
    undelivered: tuple[tuple[int, int], ...]
    delivered: dict[tuple[int, int], int]

    @property
    def clean(self) -> bool:
        return not self.conflicts and not self.undelivered and all(c == 1 for c in self.delivered.values())


def expand_factor_paths(host: Graph, word_map: WordMap, schedule: Schedule) -> list[TimedPath]:
    """n*(n-1) timed paths: every base walks every non-empty word.

    Letter j of a word is out-position j of the host, so a Cayley graph's
    generators and a factorization's factors (laid out by factor_digraph)
    expand the same way.  The edge labels and times are copied unchanged
    from the base-0 word, which is exactly why a conflict-free labeling for
    the base serves all bases at once.
    """
    n = host.vertex_count
    succ = [host.successors(v) for v in range(n)]
    scheduling.validate_schedule(word_map, schedule, len(succ[0]))
    jobs = [(word, schedule.times[key]) for key, word in word_map.items() if word]
    paths = []
    for base in range(n):
        for word, slots in jobs:
            v = base
            steps = []
            for j, t in zip(word, slots):
                steps.append(((v, j), t))
                v = succ[v][j]
            paths.append(TimedPath(source=base, dest=v, steps=tuple(steps)))
    return paths


def run_transpose(g: Graph, paths: Sequence[TimedPath]) -> TransposeTrace:
    """Replay timed paths on `g` and report conflicts and deliveries.

    Structural breakage (an edge index off the graph, a path that teleports
    or runs backward in time) raises, because such a path is not a route at
    all; contention and missing packets are findings, recorded in the trace.
    """
    occupancy: dict[int, dict[Edge, tuple[int, int]]] = {}
    conflicts: list[tuple[int, Edge, tuple[int, int], tuple[int, int]]] = []
    delivered: dict[tuple[int, int], int] = {}
    horizon = 0
    for path in paths:
        packet = (path.source, path.dest)
        at = path.source
        last_time = 0
        for (tail, index), time in path.steps:
            if tail != at:
                raise InputError(f"packet {packet} jumps from {at} to edge tail {tail}")
            heads = g.successors(tail)
            if not (0 <= index < len(heads)):
                raise InputError(f"edge index {index} out of range at vertex {tail}")
            if time <= last_time:
                raise InputError(f"packet {packet} goes back in time at {tail}: {time} after {last_time}")
            slot = occupancy.setdefault(time, {})
            edge = (tail, index)
            if edge in slot:
                conflicts.append((time, edge, slot[edge], packet))
            else:
                slot[edge] = packet
            at = heads[index]
            last_time = time
            horizon = max(horizon, time)
        if at != path.dest:
            raise InputError(f"packet {packet} ends at {at}, not its destination")
        delivered[packet] = delivered.get(packet, 0) + 1
    n = g.vertex_count
    undelivered = tuple(
        (i, j) for i in range(n) for j in range(n) if i != j and (i, j) not in delivered
    )
    return TransposeTrace(
        horizon=horizon,
        occupancy=occupancy,
        conflicts=tuple(conflicts),
        undelivered=undelivered,
        delivered=delivered,
    )


def trace_csv_rows(trace: TransposeTrace, g: Graph) -> list[tuple[int, int, int, int, int, int]]:
    """Occupancy flattened to (time, src, dst, gen, packet_src, packet_dst) rows."""
    rows = []
    for time in sorted(trace.occupancy):
        for (tail, index), (ps, pd) in sorted(trace.occupancy[time].items()):
            rows.append((time, tail, g.successors(tail)[index], index, ps, pd))
    return rows
