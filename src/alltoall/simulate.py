"""Replay a scheduled plan from every base at once, slot by slot.

The replay is the package's oracle: it knows nothing about how a schedule
was built, it just moves packets along their claimed arcs slot by slot and
reports every collision and every missing delivery.

run_transpose takes a plan as the scheduler returns it, a word map and its
schedule.  Each non-empty word is a job, in map order, with the slots the
schedule gives its key: every base vertex runs the same jobs, a letter
naming a generator of a Cayley graph or a factor of a spanning
factorization alike.  Each base copies the base-0 word's letters and slots
unchanged, which is why a conflict-free labeling for the base serves all
bases at once.  The packets are never listed: packet (base, dest) of
a job leaves `base`, crosses out-position word[i] in slot slots[i] and ends
at `dest`.

The replay is one pass over the letters of all jobs in (slot, out-position,
job) order on a regular host.  Before it writes anything it checks that
every word has one slot per letter, that its slots rise from 1 and that
every letter is an out-position of the host, and raises on the first
broken word in map order, at the first broken letter of base 0's packet,
which on a regular host is where every base breaks.

It then finds where every job takes every base by walking the jobs' words,
sorted, as a prefix trie: a stack holds one list of dests per depth, and
each new trie node maps its parent's list through one column of heads, so a
prefix that words share is walked once for all of them and for all n bases
at once.  Each job's row of dests lands in one job-major table,
dests[job*n + base], two bytes a cell while n fits.  Deliveries are checked
a base at a time on that table's column dests[base::n]: a base is served
when its column holds n-1 distinct values, none of them the base itself.
Only a column that fails is read for its missing pairs.

A job's n packets start at the n bases, so their tails stay distinct as
long as each column of heads they cross is a permutation.  A job is clean
when no other letter claims the (slot, out-position) of any of its letters
and every column before its last letter is a permutation: each of its
letters then fills the slot's column of cells row[j::d] in one assignment,
ordered by tail.  Every letter of any other job records its n packets, with
their dests read off the table, as claimants of their cells, and when the
slot closes the claimant with the smallest (base, job) owns each cell;
every other claimant is a conflict.  All conflicts are counted, and the
first CONFLICT_WITNESSES of them in the order of the losing packet's (base,
job, letter) are kept as witnesses, so a plan that double-books everything
holds no more of them than that.  Missing pairs are counted too, and the
first CONFLICT_WITNESSES of them in (base, dest) order are listed.

The replay can write the trace as text to a sink, a callable taking str:
one line "time,src,dst,gen,packet_src,packet_dst" per occupied arc and
slot, in (slot, tail, out-position) order.  A job in flight carries one
label per tail (the "src,dst" line end of its packet there) or, when dirty,
the tail and destination of each base's packet, from its first letter to
its last; each slot's row is written out and dropped as soon as the slot
closes.  Memory therefore follows the table, the jobs in flight and the
open slot, not the horizon or the slots used.  With no sink only the dirty
jobs' letters are replayed: a clean job is just its row of the table.
"""

from __future__ import annotations

from array import array
from heapq import heappush, heapreplace
from itertools import chain, compress, count, repeat
from operator import add, eq, itemgetter, lt, ne
from typing import Callable, NamedTuple

from .errors import InputError
from .graphs import Digraph, regular_degree
from .scheduling import Schedule, WordMap

Edge = tuple[int, int]  # (tail vertex, generator/factor index)
Sink = Callable[[str], object]  # takes the trace text, one or more whole rows at a time

CONFLICT_WITNESSES = 1000  # conflicts, and undelivered pairs, that a replay lists at most


class TransposeTrace(NamedTuple):
    """The verdict of a replay; the per-slot rows went to the replay's sink, if it had one.

    dests[job*vertex_count + base] is where the job takes base's packet.
    conflicts holds the first CONFLICT_WITNESSES of the conflict_count
    losing packets, in (base, job, letter) order, and undelivered the first
    CONFLICT_WITNESSES of the undelivered_count missing (source, dest)
    pairs, in that order.  A clean exchange has no conflicts, no
    undelivered pairs, and no pair delivered twice.
    """

    horizon: int
    conflicts: tuple[tuple[int, Edge, tuple[int, int], tuple[int, int]], ...]
    conflict_count: int
    undelivered: tuple[tuple[int, int], ...]
    undelivered_count: int
    delivered_pairs: int  # (source, dest) pairs that arrived at least once
    vertex_count: int
    dests: array

    @property
    def clean(self) -> bool:
        # every arrival is a distinct pair exactly when the pairs number the packets
        return not self.conflict_count and not self.undelivered_count and self.delivered_pairs == len(self.dests)


def run_transpose(g: Digraph, word_map: WordMap, schedule: Schedule, sink: Sink | None = None) -> TransposeTrace:
    """Replay every base's copy of every job on `g`; report conflicts and deliveries, and write the trace to `sink`.

    A job is each non-empty word of `word_map`, in map order, with slots
    schedule.times.get(key, ()), and dests numbers only these jobs.  Broken
    routes (a letter that is no out-position of `g`, slots that are not one
    per letter or do not rise along a word) raise InputError before
    anything reaches the sink, because such a job is not a route at all;
    contention and missing packets are findings, recorded in the trace.
    """
    n = g.vertex_count
    succ = g.out
    d = regular_degree(g)
    columns = [[heads[j] for heads in succ] for j in range(d)]
    # inverse[j][w] = the tail column j sends to w; None when column j is not a permutation
    inverse = [sorted(range(n), key=col.__getitem__) if len(set(col)) == n else None for col in columns]
    # move[j](labels) re-indexes labels by tail to the tails column j takes them to; itemgetter(i) gives no tuple
    move = [itemgetter(*inv) if inv and n > 1 else tuple for inv in inverse]
    words = []  # the jobs' words
    letters = []  # (slot, position, job, letter index) of every letter
    horizon = 0
    for key, word in word_map.items():
        if word:
            times = schedule.times.get(key, ())
            if not (len(times) == len(word) and 0 < times[0] and all(map(lt, times, times[1:]))
                    and 0 <= min(word) and max(word) < d):
                _check_route(succ, key, word, times)
            horizon = max(horizon, times[-1])
            letters += zip(times, word, repeat(len(words)), count())
            words.append(tuple(word))
    letters.sort()
    # a job is dirty when its tails can meet or a letter of it shares its (slot, position)
    dirty = {w for w, word in enumerate(words) if any(inverse[j] is None for j in word[:-1])}
    claims = [letter[:2] for letter in letters]
    for i in compress(count(), map(eq, claims, claims[1:])):
        dirty.update((letters[i][2], letters[i + 1][2]))
    del claims

    table = _walk_trie(words, columns, n)
    undelivered = []  # missing pairs, listed only until CONFLICT_WITNESSES of them are
    undelivered_count = delivered_pairs = 0
    for base in range(n):
        seen = set(table[base::n])
        delivered_pairs += len(seen)
        if len(seen) != n - 1 or base in seen:
            undelivered_count += n - 1 - len(seen) + (base in seen)  # the n-1 other vertices less those seen
            if len(undelivered) < CONFLICT_WITNESSES:
                undelivered += zip(repeat(base), sorted(set(range(n)).difference(seen, (base,))))

    if sink is None:  # a clean job is only its row of the table
        letters = [letter for letter in letters if letter[2] in dirty]
    source = [f"{v}," for v in range(n)]
    dest = [f"{v}\n" for v in range(n)]
    arc = _arc_text(succ) if sink is not None else []
    free = [""] * len(arc)
    witnesses: list = []  # heap of (-base, -job, -letter index, conflict) of the first losing packets
    conflict_count = 0
    in_flight: dict = {}  # job -> clean: the label at each tail; dirty: (each base's tail, each base's dest)
    row, current, filled, claimants = free, 0, 0, []
    for time, j, w, k in chain(letters, [(None, 0, 0, 0)]):  # the slot None closes the last slot
        if time != current:
            owners = _settle(current, claimants, n, d, witnesses) if claimants else {}
            conflict_count += len(claimants) * n - len(owners)  # every claim but the cell's first loses
            if current and sink is not None:
                for cell, packet in owners.items():
                    row[cell] = "%d,%d\n" % packet
                sink(_slot_text(current, arc, row, filled == d))  # a letter at every position fills every cell
            if time is None:
                break
            row, current, filled, claimants = free[:], time, 0, []
        word = words[w]
        if w in dirty:
            at, dests = in_flight.pop(w) if k else (range(n), table[w * n:w * n + n])
            claimants.append((w, k, j, at, dests))
            if k + 1 < len(word):
                in_flight[w] = (list(map(columns[j].__getitem__, at)), dests)
        else:
            labels = in_flight.pop(w) if k else list(map(add, source, map(dest.__getitem__, table[w * n:w * n + n])))
            row[j::d] = labels
            filled += 1
            if k + 1 < len(word):
                in_flight[w] = move[j](labels)
    witnesses.sort(reverse=True)
    return TransposeTrace(
        horizon=horizon,
        conflicts=tuple(conflict for *_, conflict in witnesses),
        conflict_count=conflict_count,
        undelivered=tuple(undelivered[:CONFLICT_WITNESSES]),
        undelivered_count=undelivered_count,
        delivered_pairs=delivered_pairs,
        vertex_count=n,
        dests=table,
    )


def _dests_typecode(n: int) -> str:
    """The array typecode of a dests table on n vertices: two bytes a cell while every vertex fits."""
    return "H" if n <= 1 << 16 else "i"


def _walk_trie(words: list[tuple[int, ...]], columns: list[list[int]], n: int) -> array:
    """dests[w*n + base] = where words[w] takes base, walking each node of the words' prefix trie once.

    Sorted, the words below one trie node come one after another, so the
    stack keeps the dests lists of the prefix a word shares with the word
    before it and maps only the letters after that prefix, one column of
    heads over the parent's list per letter.
    """
    table = array(_dests_typecode(n), [0]) * (len(words) * n)
    stack: list = [range(n)]  # stack[k]: where the first k letters of the last word take each base
    last: tuple[int, ...] = ()
    for w in sorted(range(len(words)), key=words.__getitem__):
        word = words[w]
        shared = next(compress(count(), map(ne, word, last)), min(len(word), len(last)))
        del stack[shared + 1:]
        for j in word[shared:]:
            stack.append(list(map(columns[j].__getitem__, stack[-1])))
        table[w * n:w * n + n] = array(table.typecode, stack[-1])
        last = word
    return table


def _check_route(succ, key, word, times) -> None:
    """Raise InputError on word `key`: slots not one per letter, or at the first broken letter of base 0's packet."""
    if len(times) != len(word):
        raise InputError(f"word {key} has {len(word)} letters but {len(times)} time slots")
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


def _settle(time: int, claimants: list, n: int, d: int, witnesses: list) -> dict[int, tuple[int, int]]:
    """cell -> (base, dest) of the packet that owns it in this slot; the other claimants are conflicts.

    Of the packets claiming one cell, the one with the smallest (base, job)
    owns it.  A job has at most one letter in a slot, since its slots rise.
    A conflict joins the witnesses, a heap of at most CONFLICT_WITNESSES
    negated (base, job, letter) keys whose top is the last one kept, while
    it is among the first so far.
    """
    claimants.sort(key=itemgetter(0))
    owners: dict[int, tuple[int, int]] = {}
    for base in range(n):
        for w, k, j, at, dests in claimants:
            tail = at[base]
            packet = (base, dests[base])
            first = owners.setdefault(tail * d + j, packet)
            if first is not packet:
                witness = (-base, -w, -k, (time, (tail, j), first, packet))
                if len(witnesses) < CONFLICT_WITNESSES:
                    heappush(witnesses, witness)
                elif witness > witnesses[0]:
                    heapreplace(witnesses, witness)
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
