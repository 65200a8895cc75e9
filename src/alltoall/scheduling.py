"""Conflict-free time labelings for word collections.

A schedule assigns each letter of each word a time slot so that (a) times
increase strictly along every word and (b) no two letters naming the same
factor share a time slot.  Interpreting factors as machines and words as
jobs whose operations must run in order, this is a unit-time job shop;
everything here is phrased on plain word collections so Cayley word sets
and factorization word lists schedule through the same code.

Two exact schedulers share the floor max(busiest factor's count, longest
word), which no schedule of the letters beats:

- exact_min_schedule keeps each word's letter order (the job shop) and
  proves the shortest makespan by depth-first search under a node budget.
  It serves hosts whose out-positions do not commute (star graphs,
  Petersen's factors, Kautz digraphs), where a reordered word can end
  somewhere else.
- open_shop_schedule may reorder each word's letters (the open shop) and
  always meets the floor, in polynomial time, by edge colouring (Gonzalez
  and Sahni, J. ACM 1976).  It serves hosts whose out-positions commute
  (graphs.letters_commute: hypercubes, circulants, tori), where every
  reordering ends where the word did from every base.

schedule_plan is the one entry point for a plan: given the host it replays
on and its words, it picks between the two from the host, or runs
greedy_schedule, the fast, not always shortest, alternative for either.
Words of at most two letters (the diameter-2 case) go the same way;
two_layer_time_bound and tight_schedule_feasible state the paper's
guarantees for them as counts over the same word maps.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Mapping, Sequence

from .errors import InputError, SearchBudgetError, UnsupportedGraphError
from .graphs import Digraph, letters_commute
from .layers import LayerProfile, average_diameter_bound

DEFAULT_SCHEDULE_BUDGET = 10_000_000

WordMap = Mapping[int, Sequence[int]]


@dataclass(frozen=True)
class Schedule:
    """times[key][i] is the slot of the i-th letter of word `key` (slots are 1-based)."""

    times: dict[int, tuple[int, ...]]

    @property
    def makespan(self) -> int:
        latest = 0
        for slots in self.times.values():
            if slots:
                latest = max(latest, slots[-1])
        return latest


def validate_schedule(word_map: WordMap, schedule: Schedule, degree: int) -> None:
    """Raise InputError unless `schedule` is a valid labeling of `word_map`."""
    if set(schedule.times) != {k for k, w in word_map.items() if len(w) > 0}:
        raise InputError("schedule must label exactly the non-empty words")
    used: set[tuple[int, int]] = set()
    for key, word in word_map.items():
        if not word:
            continue
        slots = schedule.times[key]
        if len(slots) != len(word):
            raise InputError(f"word {key} has {len(word)} letters but {len(slots)} time slots")
        prev = 0
        for j, t in zip(word, slots):
            if not (0 <= j < degree):
                raise InputError(f"word {key} uses factor {j}, out of range for degree {degree}")
            if t <= prev:
                raise InputError(f"times must increase along word {key}: got {slots}")
            if (j, t) in used:
                raise InputError(f"factor {j} is used twice at time {t}")
            used.add((j, t))
            prev = t


def factor_occurrences(word_map: WordMap, degree: int) -> list[int]:
    """Total occurrence count of each factor (or generator) index across all words."""
    counts = [0] * degree
    for word in word_map.values():
        for j in word:
            if not (0 <= j < degree):
                raise InputError(f"factor index {j} out of range for degree {degree}")
            counts[j] += 1
    return counts


def _greedy_times(word_map: WordMap) -> dict[int, tuple[int, ...]]:
    """greedy_schedule's labeling, before validation."""
    order = sorted((k for k, w in word_map.items() if len(w) > 0), key=lambda k: (-len(word_map[k]), k))
    # after[j][t], for a slot t that factor j uses, points at a later slot that
    # is free or used; following the pointers ends at j's first free slot >= t
    after: dict[int, dict[int, int]] = {}
    times: dict[int, tuple[int, ...]] = {}
    for key in order:
        slots = []
        t = 0
        for j in word_map[key]:
            nxt = after.setdefault(j, {})
            start = t = t + 1
            while t in nxt:
                t = nxt[t]
            while start != t:  # path compression: every slot passed now points at t
                nxt[start], start = t, nxt[start]
            nxt[t] = t + 1
            slots.append(t)
        times[key] = tuple(slots)
    return times


def greedy_schedule(word_map: WordMap, degree: int) -> Schedule:
    """Longest words first, each letter at the earliest legal slot.

    Deterministic: ties between equal-length words break on the key.  The
    result is always valid but not always the shortest possible.
    """
    schedule = Schedule(times=_greedy_times(word_map))
    validate_schedule(word_map, schedule, degree)
    return schedule


def open_shop_schedule(word_map: WordMap, degree: int) -> tuple[dict[int, tuple[int, ...]], Schedule]:
    """A shortest schedule when each word's letters may run in any order.

    Returns the non-empty words, their letters in slot order, and the
    schedule.  The floor max(busiest factor's count, longest word) bounds
    every schedule of these letters from below, and a König edge colouring
    of the words x factors multigraph (one edge per letter) with that many
    colours meets it: colours are slots, so no word and no factor uses a
    slot twice.  Greedy runs first; when it already meets the floor, its
    schedule is returned with the words in their given letter order.
    """
    words = {k: tuple(w) for k, w in word_map.items() if len(w) > 0}
    if not words:
        return words, Schedule(times={})
    floor = max(max(factor_occurrences(words, degree)), max(len(w) for w in words.values()))
    times = _greedy_times(words)
    if max(slots[-1] for slots in times.values()) == floor:
        schedule = Schedule(times=times)
        validate_schedule(words, schedule, degree)
        return words, schedule

    # at_factor[j][c] is the word whose letter on factor j has colour c (-1: none);
    # at_word[k] maps each colour used by word k to that letter's factor
    at_factor = [[-1] * floor for _ in range(degree)]
    free = [list(range(floor)) for _ in range(degree)]  # min-heaps of colours, stale entries skipped
    at_word: dict[int, dict[int, int]] = {k: {} for k in words}
    for k, word in words.items():
        mine = at_word[k]
        for j in word:
            a = next(c for c in range(len(word)) if c not in mine)  # fewer than len(word) colours are taken
            if at_factor[j][a] >= 0:
                heap = free[j]
                while at_factor[j][heap[0]] >= 0:
                    heapq.heappop(heap)
                b = heapq.heappop(heap)
                if b not in mine:
                    a = b
                else:
                    _swap_path(at_factor, at_word, free, j, a, b)
            at_factor[j][a] = k
            mine[a] = j
    new_words: dict[int, tuple[int, ...]] = {}
    times = {}
    for k, colours in at_word.items():
        order = sorted(colours)
        new_words[k] = tuple(colours[c] for c in order)
        times[k] = tuple(c + 1 for c in order)
    schedule = Schedule(times=times)
    validate_schedule(new_words, schedule, degree)
    return new_words, schedule


def _swap_path(at_factor, at_word, free, j: int, a: int, b: int) -> None:
    """Swap colours a and b along the alternating path that leaves factor j on colour a.

    b is free at j, so afterwards a is: the path runs factor -a- word -b-
    factor -a- ... and cannot reach the word that wants colour a at j, since
    that word has no a-edge and is entered only through one.
    """
    path = []  # (word, factor, colour) edges in path order
    f = j
    while True:
        k = at_factor[f][a]
        if k < 0:
            break
        path.append((k, f, a))
        g = at_word[k].get(b)
        if g is None:
            break
        path.append((k, g, b))
        f = g
    for k, f, c in path:
        at_factor[f][c] = -1
        del at_word[k][c]
    for k, f, c in path:
        c = b if c == a else a
        at_factor[f][c] = k
        at_word[k][c] = f
    k, f, c = path[-1]
    if c == b:  # the path ends at factor f, which gave up b
        heapq.heappush(free[f], b)


@dataclass(frozen=True)
class MinScheduleResult:
    """Outcome of the exact makespan search.

    status is "optimal" (schedule proven shortest) or "budget" (undecided:
    the node budget ran out first).
    """

    status: str
    schedule: Schedule | None
    makespan: int | None
    nodes: int


def _feasible_at(jobs: list[tuple[int, tuple[int, ...]]], degree: int, horizon: int, budget: list[int]) -> dict[int, tuple[int, ...]] | None:
    """Find a labeling within `horizon` slots, or None; budget[0] counts down.

    Depth-first over the letters of all jobs in order, with an explicit
    stack so that long word maps do not hit the interpreter's recursion
    limit.  Each placement costs one node; the search gives up as soon as a
    placement spends the last node.
    """
    counts = [0] * degree
    for _, word in jobs:
        for j in word:
            counts[j] += 1
    free: list[set[int]] = [set(range(1, horizon + 1)) for _ in range(degree)]
    for j in range(degree):
        if counts[j] > horizon:
            return None
    remaining = list(counts)
    # (factor, letters after it in its word, first letter of its word?)
    letters = [(j, len(word) - pos - 1, pos == 0) for _, word in jobs for pos, j in enumerate(word)]
    if letters and budget[0] <= 0:
        return None
    slots: list[int] = []  # slots[i] is the slot placed for letters[i]
    stack: list = []  # stack[i] iterates the slots still to try for letters[i]
    while len(slots) < len(letters):
        if len(stack) == len(slots):
            j, tail, first = letters[len(slots)]
            # a machine can never catch up once demand exceeds its free slots
            if remaining[j] > len(free[j]):
                candidates = []
            else:
                after = 0 if first else slots[-1]
                # letters after this one still need horizon - t further slots
                candidates = [t for t in sorted(free[j]) if after < t <= horizon - tail]
            stack.append(iter(candidates))
        t = next(stack[-1], None)
        if t is None:
            # dead end: take back the slot of the letter before and try its next one
            stack.pop()
            if not stack:
                return None
            j = letters[len(slots) - 1][0]
            free[j].add(slots.pop())
            remaining[j] += 1
            continue
        budget[0] -= 1
        if budget[0] <= 0:
            return None
        j = letters[len(slots)][0]
        free[j].discard(t)
        remaining[j] -= 1
        slots.append(t)
    assignment: dict[int, tuple[int, ...]] = {}
    pos = 0
    for key, word in jobs:
        assignment[key] = tuple(slots[pos:pos + len(word)])
        pos += len(word)
    return assignment


def exact_min_schedule(
    word_map: WordMap,
    degree: int,
    budget: int = DEFAULT_SCHEDULE_BUDGET,
) -> MinScheduleResult:
    """Search for the shortest valid labeling, horizon by horizon.

    Tries every makespan up from the trivial lower bound (busiest factor
    count, but at least the longest word); the first feasible horizon is
    optimal.  One horizon always is: at the total letter count, the serial
    schedule fits.  Branch and bound inside each horizon; the budget is
    shared across horizons, and running out yields status "budget" rather
    than a wrong verdict.
    """
    jobs = sorted(((k, tuple(w)) for k, w in word_map.items() if len(w) > 0), key=lambda kw: (-len(kw[1]), kw[0]))
    if not jobs:
        return MinScheduleResult(status="optimal", schedule=Schedule(times={}), makespan=0, nodes=0)
    counts = factor_occurrences(word_map, degree)
    floor = max(max(counts), max(len(w) for _, w in jobs))
    budget_box = [budget]
    horizon = floor
    while (assignment := _feasible_at(jobs, degree, horizon, budget_box)) is None:
        if budget_box[0] <= 0:
            return MinScheduleResult(status="budget", schedule=None, makespan=None, nodes=budget)
        horizon += 1
    schedule = Schedule(times=assignment)
    validate_schedule(word_map, schedule, degree)
    return MinScheduleResult(
        status="optimal", schedule=schedule, makespan=schedule.makespan, nodes=budget - budget_box[0]
    )


def schedule_plan(
    host: Digraph, word_map: WordMap, method: str, budget: int
) -> tuple[dict[int, tuple[int, ...]], Schedule]:
    """Schedule a plan's words for replay on `host`, whichever route made them.

    Letter j of a word is out-position j of the host: a generator of a Cayley
    graph, or a factor of factorization.factor_digraph.  "greedy" runs
    greedy_schedule.  "exact" runs open_shop_schedule where the host's
    out-positions commute, so that a reordered word still ends where it did
    from every base, and exact_min_schedule under `budget` elsewhere.
    Returns the non-empty words, their letters in slot order, and the
    schedule; raises SearchBudgetError when the exact search gives up.
    """
    words = {k: tuple(w) for k, w in word_map.items() if len(w) > 0}
    degree = len(host.out[0])
    if method == "greedy":
        return words, greedy_schedule(words, degree)
    if method != "exact":
        raise InputError(f"unknown scheduling method {method!r}")
    if letters_commute(host):
        return open_shop_schedule(words, degree)
    res = exact_min_schedule(words, degree, budget=budget)
    if res.status != "optimal":
        raise SearchBudgetError(f"exact scheduling gave up ({res.status}) after {res.nodes} nodes")
    return words, res.schedule


# ---------------------------------------------------------------------------
# words of at most two letters (the diameter-2 case)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TwoLayerCounts:
    """Per-factor first/second letter counts of a length <= 2 word collection."""

    first_of_pair: tuple[int, ...]
    second_of_pair: tuple[int, ...]

    @property
    def max_combined(self) -> int:
        return max(
            (a + b for a, b in zip(self.first_of_pair, self.second_of_pair)),
            default=0,
        )


def two_layer_counts(word_map: WordMap, degree: int) -> TwoLayerCounts:
    first = [0] * degree
    second = [0] * degree
    for key, word in word_map.items():
        if len(word) > 2:
            raise UnsupportedGraphError(f"word {key} has length {len(word)}; this analysis needs length <= 2")
        if len(word) == 2:
            first[word[0]] += 1
            second[word[1]] += 1
    return TwoLayerCounts(first_of_pair=tuple(first), second_of_pair=tuple(second))


def two_layer_time_bound(counts: TwoLayerCounts) -> int:
    """1 + max over factors of (first + second counts): a makespan guarantee.

    One slot pays for all the single-letter words (each factor carries at
    most one when the words come from distinct vertices); the busiest
    factor's pair letters each need their own slot after/around it.
    """
    return 1 + counts.max_combined


def tight_schedule_feasible(word_map: WordMap, degree: int) -> tuple[int, bool]:
    """Predict feasibility at the averaged horizon T = ceil(total letters / d) without searching.

    For words of at most two letters.  Factor m needs: its total load within
    T; if any two-letter word starts on m, a start slot no later than T-1;
    if any ends on m, an end slot no earlier than 2, i.e. at most T-1 of the
    T slots can hold ends.  These three per-factor conditions are also
    sufficient, which the exhaustive cross-check in the tests confirms.
    """
    load = factor_occurrences(word_map, degree)
    horizon = max(1, -(-sum(load) // degree))
    counts = two_layer_counts(word_map, degree)
    return horizon, max(load) <= horizon and max(counts.first_of_pair + counts.second_of_pair) < horizon


# ---------------------------------------------------------------------------
# schedule classification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScheduleFlags:
    """How a word collection and its schedule relate to the graph's bounds.

    Four nested equalities along the chain
        theta <= ceil(total count / d) <= max count <= makespan,
    where theta is layers.average_diameter_bound of the base's layers:
    balanced closes the middle gap (no factor above average), short closes
    the left gap (total work at the base's floor), optimal closes both
    (max count down at theta), minimum closes the right gap (the schedule
    wastes no slot on its busiest factor).
    """

    balanced: bool
    short: bool
    optimal: bool
    minimum: bool


def classify(word_map: WordMap, schedule: Schedule, degree: int, profile: LayerProfile) -> ScheduleFlags:
    """Flags plus a consistency check of the bound chain they rely on.

    `schedule` must already be valid for `word_map`, as greedy_schedule and
    exact_min_schedule results are.  The chain theta <= ceil(total/d) <=
    max count <= makespan must hold for any valid schedule of words that
    reach every vertex from the base, since such words carry at least the
    base's distance sum in letters; a violation means a bug upstream, so it
    raises.
    """
    counts = factor_occurrences(word_map, degree)
    total = sum(counts)
    max_count = max(counts) if counts else 0
    avg_count = -(-total // degree) if degree else 0
    theta = average_diameter_bound(profile)
    makespan = schedule.makespan
    if not (theta <= avg_count <= max_count <= makespan):
        raise InputError(
            f"bound chain violated: theta={theta}, ceil(total/d)={avg_count}, "
            f"max={max_count}, makespan={makespan}"
        )
    return ScheduleFlags(
        balanced=max_count == avg_count,
        short=avg_count == theta,
        optimal=max_count == theta,
        minimum=makespan == max_count,
    )
