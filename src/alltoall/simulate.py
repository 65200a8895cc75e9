"""Expand schedules into jobs for every base and replay them slot by slot.

The replay is the package's oracle: it knows nothing about how a schedule
was built, it just moves packets along their claimed arcs slot by slot and
reports every collision and every missing delivery.

Expansion pairs each scheduled word with its slots, one job per word: every
base vertex runs the same jobs, a letter naming a generator of a Cayley
graph or a factor of a spanning factorization alike.  It checks only that
every word has one slot per letter, leaving slot order and conflicts to the
replay.  The packets are never listed: packet (base, dest) of a job leaves
`base`, crosses out-position word[i] in slot slots[i] and ends at `dest`.

run_transpose replays a regular host in one pass over the letters of all
jobs in (slot, out-position, job) order.  Before it writes anything it
checks that every word's slots rise from 1 and that every letter is an
out-position of the host, and raises on the first broken letter of base 0's
packets, which on a regular host is where every base breaks.  A job's n
packets start at the n bases, so their tails stay distinct as long as each
column of heads they cross is a permutation.  A job is clean when no other
letter claims the (slot, out-position) of any of its letters and every
column before its last letter is a permutation: each of its letters then
fills the slot's column of cells row[j::d] in one assignment, ordered by
tail.  Every letter of any other job records its n packets as claimants of
their cells, and when the slot closes the claimant with the smallest
(base, job) owns each cell; every other claimant is a conflict.  Conflicts
are reported in the order of the losing packet's (base, job, letter).

The replay can write the trace as text to a sink, a callable taking str:
one line "time,src,dst,gen,packet_src,packet_dst" per occupied arc and
slot, in (slot, tail, out-position) order.  A job in flight carries one
label per tail (the "src,dst" line end of its packet there) or, when dirty,
the tail and destination of each base's packet, from its first letter to
its last; each slot's row is written out and dropped as soon as the slot
closes.  Memory therefore follows the jobs in flight and the open slot, not
the horizon or the slots used.  With no sink, a clean job is only walked
once for its deliveries, and only dirty jobs are held.  Deliveries are
counted in one flat n*n array.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import chain, compress, count, repeat
from operator import add, eq, itemgetter, lt, not_
from typing import Callable, Sequence

from .errors import InputError
from .graphs import Digraph, regular_degree
from .scheduling import Schedule, WordMap

Edge = tuple[int, int]  # (tail vertex, generator/factor index)
Sink = Callable[[str], object]  # takes the trace text, one or more whole rows at a time


@dataclass(frozen=True)
class Expansion:
    """A plan ready to replay: every base runs every (word, slots) job, one packet per (base, job)."""

    succ: Sequence[Sequence[int]]
    jobs: Sequence[tuple[Sequence[int], Sequence[int]]]  # (word, its slots)

    def __len__(self) -> int:
        return len(self.succ) * len(self.jobs)


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
    """The plan's jobs, one per non-empty word: every base runs each, n*(n-1) packets in all.

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


def run_transpose(g: Digraph, expansion: Expansion, sink: Sink | None = None) -> TransposeTrace:
    """Replay every base's copy of every job on `g`; report conflicts and deliveries, and write the trace to `sink`.

    Broken routes (a letter that is no out-position of `g`, slots that are
    not one per letter or do not rise along a word) raise InputError before
    anything reaches the sink, because such a job is not a route at all;
    contention and missing packets are findings, recorded in the trace.
    """
    n = g.vertex_count
    succ = g.out
    d = regular_degree(g)
    jobs = expansion.jobs
    columns = [[heads[j] for heads in succ] for j in range(d)]
    # inverse[j][w] = the tail column j sends to w; None when column j is not a permutation
    inverse = [sorted(range(n), key=col.__getitem__) if len(set(col)) == n else None for col in columns]
    letters = []  # (slot, position, job, letter index) of every letter
    horizon = 0
    for w, (word, times) in enumerate(jobs):
        if word:
            if not (len(times) == len(word) and 0 < times[0] and all(map(lt, times, times[1:]))
                    and 0 <= min(word) and max(word) < d):
                _check_route(succ, word, times)
            horizon = max(horizon, times[-1])
            letters += zip(times, word, repeat(w), count())
    letters.sort()
    # a job is dirty when its tails can meet or a letter of it shares its (slot, position)
    dirty = {w for w, (word, _) in enumerate(jobs) if any(inverse[j] is None for j in word[:-1])}
    claims = [letter[:2] for letter in letters]
    for i in compress(count(), map(eq, claims, claims[1:])):
        dirty.update((letters[i][2], letters[i + 1][2]))
    del claims

    counts = array("i" if n * n < 2**31 else "q", [0]) * (n * n)

    def walk(word) -> list[int]:
        """Where the word takes each base, counted as a delivery."""
        dests = range(n)
        for j in word:
            dests = list(map(columns[j].__getitem__, dests))
        for key in map(add, range(0, n * n, n), dests):
            counts[key] += 1
        return dests

    if sink is None:  # a clean job is only its deliveries
        letters = [letter for letter in letters if letter[2] in dirty]
    for w, (word, _) in enumerate(jobs):
        if not word or (sink is None and w not in dirty):
            walk(word)  # any other job is walked at its first letter
    source = [f"{v}," for v in range(n)]
    dest = [f"{v}\n" for v in range(n)]
    arc = _arc_text(succ) if sink is not None else []
    free = [""] * len(arc)
    conflicts: list = []  # (base, job, letter index, conflict) of every losing packet
    in_flight: dict = {}  # job -> clean: the label at each tail; dirty: (each base's tail, each base's dest)
    row, current, filled, claimants = free, 0, 0, []
    for time, j, w, k in chain(letters, [(None, 0, 0, 0)]):  # the slot None closes the last slot
        if time != current:
            owners = _settle(current, claimants, n, d, conflicts) if claimants else {}
            if current and sink is not None:
                for cell, packet in owners.items():
                    row[cell] = "%d,%d\n" % packet
                sink(_slot_text(current, arc, row, filled == d))  # a letter at every position fills every cell
            if time is None:
                break
            row, current, filled, claimants = free[:], time, 0, []
        word = jobs[w][0]
        if w in dirty:
            at, dests = in_flight.pop(w) if k else (range(n), walk(word))
            claimants.append((w, k, j, at, dests))
            if k + 1 < len(word):
                in_flight[w] = (list(map(columns[j].__getitem__, at)), dests)
        else:
            labels = in_flight.pop(w) if k else list(map(add, source, map(dest.__getitem__, walk(word))))
            row[j::d] = labels
            filled += 1
            if k + 1 < len(word):
                in_flight[w] = list(map(labels.__getitem__, inverse[j]))
    conflicts.sort()
    missing = compress(range(n * n), map(not_, counts))
    return TransposeTrace(
        horizon=horizon,
        conflicts=tuple(conflict for *_, conflict in conflicts),
        undelivered=tuple(divmod(k, n) for k in missing if k % (n + 1)),
        vertex_count=n,
        counts=counts,
    )


def _check_route(succ, word, times) -> None:
    """Raise InputError at the first broken letter of base 0's packet: off the host, or a slot that does not rise."""
    if len(times) != len(word):
        raise InputError(f"a job has {len(word)} letters but {len(times)} time slots")
    dest = 0  # where the packet's walk ends, stopping at the first letter off the host
    for j in word:
        if not 0 <= j < len(succ[dest]):
            break
        dest = succ[dest][j]
    v = last = 0
    for j, time in zip(word, times):
        if not 0 <= j < len(succ[v]):
            raise InputError(f"edge index {j} out of range at vertex {v}")
        if time <= last:
            raise InputError(f"packet {(0, dest)} goes back in time at {v}: {time} after {last}")
        v, last = succ[v][j], time


def _settle(time: int, claimants: list, n: int, d: int, conflicts: list) -> dict[int, tuple[int, int]]:
    """cell -> (base, dest) of the packet that owns it in this slot; the other claimants become conflicts.

    Of the packets claiming one cell, the one with the smallest (base, job)
    owns it.  A job has at most one letter in a slot, since its slots rise.
    """
    claimants.sort(key=itemgetter(0))
    owners: dict[int, tuple[int, int]] = {}
    for base in range(n):
        for w, k, j, at, dests in claimants:
            tail = at[base]
            packet = (base, dests[base])
            first = owners.setdefault(tail * d + j, packet)
            if first is not packet:
                conflicts.append((base, w, k, (time, (tail, j), first, packet)))
    return owners


def _arc_text(succ) -> list[str]:
    """cell -> "tail,head,index," for every arc, in cell order."""
    return [f"{tail},{head},{i}," for tail, heads in enumerate(succ) for i, head in enumerate(heads)]


def _slot_text(time: int, arc: list[str], row: list, full: bool) -> str:
    """The rows of one slot, whose cells hold the label of the packet on that arc, falsy when free."""
    if not full:
        arc, row = list(compress(arc, row)), list(compress(row, row))
    pieces = [f"{time},"] * (3 * len(row))
    pieces[1::3] = arc
    pieces[2::3] = row
    return "".join(pieces)
