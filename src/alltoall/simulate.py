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

The replay can write the trace as text to a sink, a callable taking str:
one line "time,src,dst,gen,packet_src,packet_dst" per occupied arc and
slot, in (slot, tail, out-position) order.  Deliveries are counted in one
flat n*n array.

An Expansion is replayed a word at a time first: one letter moves the word's
n packets, one from each base, across one out-position in one slot.  When
that out-position's column of heads is a permutation, the n tails are
distinct and the letter fills the slot's column of cells row[j::d] in one
assignment, ordered by tail.  This pass still walks every packet on the
replayed graph and reads no scheduler code.  Before it writes anything it
checks the whole plan, and it gives up when some word's slots do not rise
from 1, when a letter is not an out-position of every vertex or names a
column that is not a permutation, or when two letters claim the same
(slot, out-position).  Otherwise it walks the letters in (slot,
out-position) order.  A word in flight carries one label per tail, the
"src,dst" line end of the packet there, built once when the word's first
letter comes up and dropped after its last; each slot's row of labels is
written out and dropped as soon as the slot closes.  Memory therefore
follows the words in flight, not the horizon or the slots used, and with
no sink the pass keeps no labels or rows at all.

Whatever the word pass gives up on is replayed packet by packet, the only
path that records conflicts and raises on broken routes, so a plan the fast
pass refuses gets exactly the verdict, conflicts and errors it would get
alone.  Hand-built packet lists always take that path.  It keeps one
integer row of n*d cells per slot used, created on first use; cell
tail*d + index holds the packet id source*n + dest + 1 of the first packet
to cross that arc in that slot, 0 meaning free.  A lone packet in slot
10**9 costs one row.  The rows go to the sink, in the same format, once
the replay has finished without raising.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import compress, count, repeat
from operator import add, eq, lt, not_
from typing import Callable, Iterable, Iterator, Sequence

from .errors import InputError
from .graphs import Digraph
from .scheduling import Schedule, WordMap

Edge = tuple[int, int]  # (tail vertex, generator/factor index)
Packet = tuple[int, int, Sequence[int], Sequence[int], Sequence[int]]  # (source, dest, tails, ports, times)
Sink = Callable[[str], object]  # takes the trace text, one or more whole rows at a time


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
    """The verdict of a replay; the per-slot rows went to the replay's sink, if it had one.

    counts[source*vertex_count + dest] is how often that packet arrived.  A
    clean exchange has no conflicts, no undelivered pairs, and every
    delivery count equal to one.
    """

    horizon: int
    conflicts: tuple[tuple[int, Edge, tuple[int, int], tuple[int, int]], ...]
    undelivered: tuple[tuple[int, int], ...]
    vertex_count: int
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


def run_transpose(g: Digraph, paths: Iterable[Packet], sink: Sink | None = None) -> TransposeTrace:
    """Replay packets on `g`; report conflicts and deliveries, and write the trace rows to `sink`.

    Structural breakage (an edge index off the graph, a path that teleports
    or runs backward in time) raises, because such a path is not a route at
    all; contention and missing packets are findings, recorded in the trace.
    An Expansion over `g` first gets the word-by-word pass; whatever that
    pass cannot settle is replayed packet by packet from the start.  Either
    way nothing reaches the sink from a replay that raises.
    """
    n = g.vertex_count
    succ = g.out
    d = max(map(len, succ), default=0)
    code = "i" if n * n < 2**31 else "q"
    if isinstance(paths, Expansion) and paths.succ == succ:
        replayed = _replay_by_word(paths.jobs, succ, d, code, sink)
        if replayed is not None:
            return _trace(n, (), *replayed)
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
    if sink is not None:
        _write_id_rows(slots, succ, d, sink)
    return _trace(n, tuple(conflicts), horizon, counts)


def _replay_by_word(jobs, succ, d: int, code: str, sink: Sink | None) -> tuple[int, array] | None:
    """(horizon, counts) of the replay run a word at a time, or None, before any output, where it gives up.

    A word's n packets start at the n bases, so their tails stay distinct
    for as long as each letter's column of heads is a permutation; and
    since this pass writes whole columns only, a column is free in a slot
    exactly when no other letter claims that (slot, position).
    """
    n = len(succ)
    # the out-positions every vertex has, each as its column of heads
    columns = [[heads[j] for heads in succ] for j in range(min(map(len, succ), default=0))]
    # inverse[j][w] = the tail column j sends to w; None when column j is not a permutation
    inverse = [sorted(range(n), key=col.__getitem__) if len(set(col)) == n else None for col in columns]
    letters = []  # (slot, position, job, letter index) of every letter
    horizon = 0
    for w, (word, times) in enumerate(jobs):
        if len(times) != len(word):
            return None
        if word:
            if not (0 < times[0] and all(map(lt, times, times[1:])) and 0 <= min(word) and max(word) < len(columns)):
                return None
            if any(inverse[j] is None for j in word):
                return None
            horizon = max(horizon, times[-1])
            letters += zip(times, word, repeat(w), count())
    letters.sort()
    claims = [letter[:2] for letter in letters]
    if any(map(eq, claims, claims[1:])):
        return None

    counts = array(code, [0]) * (n * n)

    def walk(word) -> list[int]:
        """Where the word takes each source, counted as a delivery."""
        dests = range(n)
        for j in word:
            dests = list(map(columns[j].__getitem__, dests))
        for key in map(add, range(0, n * n, n), dests):
            counts[key] += 1
        return dests

    for word, _ in jobs:
        if sink is None or not word:
            walk(word)  # with a sink, a word with letters is walked at its first letter
    if sink is None:
        return horizon, counts
    source = [f"{v}," for v in range(n)]
    dest = [f"{v}\n" for v in range(n)]
    arc = _arc_text(succ, d)
    free = [""] * (n * d)
    in_flight: dict[int, list[str]] = {}  # job -> the label at each tail, between its first and last letter
    row, current, filled = free, 0, 0
    for time, j, w, k in letters:
        if time != current:
            if current:
                sink(_slot_text(current, arc, row, filled == d))  # a letter at every position fills every cell
            row, current, filled = free[:], time, 0
        word = jobs[w][0]
        labels = in_flight.pop(w) if k else list(map(add, source, map(dest.__getitem__, walk(word))))
        row[j::d] = labels
        filled += 1
        if k + 1 < len(word):
            in_flight[w] = list(map(labels.__getitem__, inverse[j]))
    if current:
        sink(_slot_text(current, arc, row, filled == d))
    return horizon, counts


def _arc_text(succ, d: int) -> list[str]:
    """cell -> "tail,head,index,"; cells past an irregular host's out-degree are never occupied."""
    return [f"{tail},{heads[i] if i < len(heads) else -1},{i},"
            for tail, heads in enumerate(succ) for i in range(d)]


def _slot_text(time: int, arc: list[str], row: list, full: bool) -> str:
    """The rows of one slot, whose cells hold the label of the packet on that arc, falsy when free."""
    if not full:
        arc, row = list(compress(arc, row)), list(compress(row, row))
    pieces = [f"{time},"] * (3 * len(row))
    pieces[1::3] = arc
    pieces[2::3] = row
    return "".join(pieces)


def _write_id_rows(slots: dict[int, array], succ, d: int, sink: Sink) -> None:
    """The packet-by-packet replay's rows of packet ids, as trace text, one slot at a time."""
    n = len(succ)
    arc = _arc_text(succ, d)
    for time in sorted(slots):
        labels = ["%d,%d\n" % divmod(pid - 1, n) if pid else "" for pid in slots[time]]
        sink(_slot_text(time, arc, labels, False))


def _trace(n: int, conflicts, horizon: int, counts: array) -> TransposeTrace:
    missing = compress(range(n * n), map(not_, counts))
    return TransposeTrace(
        horizon=horizon,
        conflicts=conflicts,
        undelivered=tuple(divmod(k, n) for k in missing if k % (n + 1)),
        vertex_count=n,
        counts=counts,
    )
