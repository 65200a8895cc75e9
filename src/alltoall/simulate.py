"""Expand schedules into a stream of packets and replay them slot by slot.

The replay is the package's oracle: it knows nothing about how a schedule
was built, it just moves packets along their claimed edges slot by slot and
reports every collision and every missing delivery.

Expansion translates a scheduled word list into per-pair packets: every base
vertex runs the same words, a letter naming a generator of a Cayley graph or
a factor of a spanning factorization alike.  It checks only that every word
has one slot per letter, leaving slot order and conflicts to the replay, and
generates the packets on demand, so no list of routes is ever built: a
packet is (source, dest, tails, ports, times), the vertex it leaves in each
step, the out-position it takes there and the slot it takes it in.

The replay keeps its occupancy flat.  Each slot that some packet uses gets
one integer row of n*d cells, created on first use; cell tail*d + index
holds the packet id source*n + dest + 1 of the first packet to cross that
arc in that slot, 0 meaning free.  Deliveries are counted in one flat n*n
array.  Memory therefore follows the slots actually used, not the horizon:
a lone packet in slot 10**9 costs one row.

An Expansion is replayed a word at a time first: one letter moves the word's
n packets, one from each base, across one out-position in one slot.  When
that out-position's column of heads is a permutation, the n tails are
distinct and the letter fills the slot's column of cells row[j::d] in one
assignment, ordered by tail.  This pass still walks every packet on the
replayed graph and reads no scheduler code.  It gives up, discarding what
it built, on the first word whose slots do not rise from 1, whose letter is
not an out-position of every vertex or names a column that is not a
permutation, and on the first letter whose column in its slot is taken.
The same Expansion is then replayed packet by packet, the only path that
records conflicts and raises on broken routes, so a plan the fast pass
refuses gets exactly the verdict, conflicts and errors it would get alone.
Hand-built packet lists always take the packet-by-packet path.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import chain, compress, repeat
from operator import add, floordiv, lt, mod, not_, sub
from typing import Iterable, Iterator, Sequence

from .errors import InputError
from .graphs import Digraph
from .scheduling import Schedule, WordMap

Edge = tuple[int, int]  # (tail vertex, generator/factor index)
Packet = tuple[int, int, Sequence[int], Sequence[int], Sequence[int]]  # (source, dest, tails, ports, times)


@dataclass(frozen=True)
class Expansion:
    """The packets of an expanded plan, generated on demand: one per (base, non-empty word)."""

    succ: Sequence[Sequence[int]]
    jobs: Sequence[tuple[Sequence[int], Sequence[int]]]  # (word, its slots)

    def __len__(self) -> int:
        return len(self.succ) * len(self.jobs)

    def __iter__(self) -> Iterator[Packet]:
        succ = self.succ
        for base in range(len(succ)):
            for word, slots in self.jobs:
                v = base
                tails = []
                for j in word:
                    tails.append(v)
                    heads = succ[v]
                    if not 0 <= j < len(heads):
                        break  # the replay reports the missing arc at tail v
                    v = heads[j]
                yield base, v, tails, word, slots


@dataclass(frozen=True)
class TransposeTrace:
    """Everything observed during a replay.

    slots[t] is the occupancy row of slot t: cell tail*width + index holds
    source*vertex_count + dest + 1 for the packet that crossed that arc in
    slot t (the first one, when packets collided), 0 if none did.
    counts[source*vertex_count + dest] is how often that packet arrived.  A
    clean exchange has no conflicts, no undelivered pairs, and every
    delivery count equal to one.
    """

    horizon: int
    conflicts: tuple[tuple[int, Edge, tuple[int, int], tuple[int, int]], ...]
    undelivered: tuple[tuple[int, int], ...]
    vertex_count: int
    width: int
    slots: dict[int, array]
    counts: array

    def deliveries(self, source: int, dest: int) -> int:
        return self.counts[source * self.vertex_count + dest]

    @property
    def delivered_pairs(self) -> int:
        """How many (source, dest) pairs arrived at least once."""
        return len(self.counts) - self.counts.count(0)

    @property
    def clean(self) -> bool:
        return not self.conflicts and not self.undelivered and max(self.counts, default=0) <= 1


def expand_factor_paths(host: Digraph, word_map: WordMap, schedule: Schedule) -> Expansion:
    """n*(n-1) packets, streamed: every base walks every non-empty word.

    Letter j of a word is out-position j of the host, so a Cayley graph's
    generators and a factorization's factors (laid out by factor_digraph)
    expand the same way.  The edge labels and times are copied unchanged
    from the base-0 word, which is exactly why a conflict-free labeling for
    the base serves all bases at once.  Raises InputError unless every
    non-empty word has exactly one slot per letter.
    """
    jobs = []
    for key, word in word_map.items():
        if word:
            slots = schedule.times.get(key, ())
            if len(slots) != len(word):
                raise InputError(f"word {key} has {len(word)} letters but {len(slots)} time slots")
            jobs.append((word, slots))
    return Expansion(succ=host.out, jobs=jobs)


def run_transpose(g: Digraph, paths: Iterable[Packet]) -> TransposeTrace:
    """Replay packets on `g`; report conflicts and deliveries.

    Structural breakage (an edge index off the graph, a path that teleports
    or runs backward in time) raises, because such a path is not a route at
    all; contention and missing packets are findings, recorded in the trace.
    An Expansion over `g` first gets the word-by-word pass; whatever that
    pass cannot settle is replayed packet by packet from the start.
    """
    n = g.vertex_count
    succ = g.out
    d = max(map(len, succ), default=0)
    code = "i" if n * n < 2**31 else "q"
    if isinstance(paths, Expansion) and paths.succ == succ:
        replayed = _replay_by_word(paths.jobs, succ, d, code)
        if replayed is not None:
            return _trace(n, d, (), *replayed)
    free = array(code, [0]) * (n * d)
    slots: dict[int, array] = {}
    conflicts: list[tuple[int, Edge, tuple[int, int], tuple[int, int]]] = []
    counts = array(code, [0]) * (n * n)
    horizon = 0
    for source, dest, tails, ports, times in paths:
        if not (0 <= source < n and 0 <= dest < n):
            raise InputError(f"packet {(source, dest)} does not run between two vertices of the graph")
        pid = source * n + dest + 1
        at = source
        last_time = 0
        for tail, index, time in zip(tails, ports, times):
            if tail != at:
                raise InputError(f"packet {(source, dest)} jumps from {at} to edge tail {tail}")
            heads = succ[tail]
            if not 0 <= index < len(heads):
                raise InputError(f"edge index {index} out of range at vertex {tail}")
            if time <= last_time:
                raise InputError(f"packet {(source, dest)} goes back in time at {tail}: {time} after {last_time}")
            row = slots.get(time)
            if row is None:
                row = slots[time] = free[:]
            cell = tail * d + index
            first = row[cell]
            if first:
                conflicts.append((time, (tail, index), divmod(first - 1, n), (source, dest)))
            else:
                row[cell] = pid
            at = heads[index]
            last_time = time
        if at != dest:
            raise InputError(f"packet {(source, dest)} ends at {at}, not its destination")
        counts[pid - 1] += 1
        if last_time > horizon:
            horizon = last_time
    return _trace(n, d, tuple(conflicts), horizon, slots, counts)


def _replay_by_word(jobs, succ, d: int, code: str) -> tuple[int, dict[int, array], array] | None:
    """(horizon, slots, counts) of the replay run a word at a time, or None where it gives up.

    A word's n packets start at the n bases, so their tails stay distinct
    for as long as each letter's column of heads is a permutation; and
    since this pass writes whole columns only, a column is free in a slot
    exactly when no earlier letter claimed that (slot, position).
    """
    n = len(succ)
    # the out-positions every vertex has, each as its column of heads
    columns = [[heads[j] for heads in succ] for j in range(min(map(len, succ), default=0))]
    # inverse[j][w] = the tail column j sends to w; None when column j is not a permutation
    inverse = [sorted(range(n), key=col.__getitem__) if len(set(col)) == n else None for col in columns]
    free = array(code, [0]) * (n * d)
    slots: dict[int, array] = {}
    claimed: set[tuple[int, int]] = set()  # (slot, position) of every column written
    counts = array(code, [0]) * (n * n)
    horizon = 0
    for word, times in jobs:
        if len(times) != len(word):
            return None
        if word:
            if not (0 < times[0] and all(map(lt, times, times[1:])) and 0 <= min(word) and max(word) < len(columns)):
                return None
            if any(inverse[j] is None for j in word):
                return None
            horizon = max(horizon, times[-1])
        tails = range(n)
        for j in word:
            tails = list(map(columns[j].__getitem__, tails))
        keys = list(map(add, range(0, n * n, n), tails))  # source*n + dest, sources in order
        for key in keys:
            counts[key] += 1
        carried = list(map(add, keys, repeat(1)))  # carried[v]: the id of the packet at tail v
        for j, time in zip(word, times):
            if (time, j) in claimed:
                return None
            claimed.add((time, j))
            row = slots.get(time)
            if row is None:
                row = slots[time] = free[:]
            row[j::d] = array(code, carried)
            carried = list(map(carried.__getitem__, inverse[j]))
    return horizon, slots, counts


def _trace(n: int, d: int, conflicts, horizon: int, slots: dict[int, array], counts: array) -> TransposeTrace:
    missing = compress(range(n * n), map(not_, counts))
    return TransposeTrace(
        horizon=horizon,
        conflicts=conflicts,
        undelivered=tuple(divmod(k, n) for k in missing if k % (n + 1)),
        vertex_count=n,
        width=d,
        slots=slots,
        counts=counts,
    )


def trace_csv_rows(trace: TransposeTrace, g: Digraph) -> Iterator[str]:
    """The trace CSV's rows as text, one chunk per used slot, in (time, src, gen) order.

    A row reads "time,src,dst,gen,packet_src,packet_dst\n": in slot time
    the arc from src to dst at out-position gen carried the packet from
    packet_src to packet_dst.
    """
    n, d = trace.vertex_count, trace.width
    source = [f"{v}," for v in range(n)]
    dest = [f"{v}\n" for v in range(n)]
    # cell -> "tail,head,index,"; cells past an irregular host's out-degree are never occupied
    arc = [f"{tail},{heads[i] if i < len(heads) else -1},{i},"
           for tail, heads in enumerate(g.out) for i in range(d)]
    for time in sorted(trace.slots):
        row = trace.slots[time]
        keys = list(map(sub, compress(row, row), repeat(1)))
        yield "".join(chain.from_iterable(zip(
            repeat(f"{time},"),
            compress(arc, row),
            map(source.__getitem__, map(floordiv, keys, repeat(n))),
            map(dest.__getitem__, map(mod, keys, repeat(n))),
        )))
