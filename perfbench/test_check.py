"""The checker accepts the program's artifacts and rejects corrupted schedules.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from check import CheckError, build_net, check_exchange  # noqa: E402
from ladder import WORKLOADS  # noqa: E402

EXACT = WORKLOADS["exact"]


def pipeline(graph: str, tmp_path: Path) -> tuple[Path, str]:
    from alltoall.cli import main

    out = tmp_path / graph
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(["pipeline", "--builtin", graph, "--outdir", str(out)]) == 0
    return out, buf.getvalue()


def rows(out: Path) -> list[list[int]]:
    with (out / "schedule.csv").open(newline="") as fh:
        return [list(map(int, r)) for r in list(csv.reader(fh))[1:]]


def write_rows(out: Path, body: list[list[int]]) -> None:
    with (out / "schedule.csv").open("w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["word_target", "position", "factor", "time"])
        w.writerows(body)


def duplicate_slot(body: list[list[int]]) -> list[list[int]]:
    """Move one letter onto a slot its factor already uses, keeping its word's times rising."""
    times = {}
    for key, pos, _, t in body:
        times.setdefault(key, {})[pos] = t
    for a in body:
        for i, b in enumerate(body):
            if a[0] == b[0] or a[2] != b[2] or a[3] == b[3]:
                continue
            before = times[b[0]].get(b[1] - 1, 0)
            after = times[b[0]].get(b[1] + 1, float("inf"))
            if before < a[3] < after:
                return body[:i] + [[b[0], b[1], b[2], a[3]]] + body[i + 1:]
    raise AssertionError("no letter can be moved onto a busy slot")


def drop_last_letter(body: list[list[int]]) -> list[list[int]]:
    longest = max(body, key=lambda r: (r[1], r[0]))
    return [r for r in body if r is not longest]


@pytest.mark.parametrize("graph", ["z7-124", "q3", "petersen"])
def test_program_artifacts_pass(graph, tmp_path):
    out, stdout = pipeline(graph, tmp_path)
    tau, psi = check_exchange(build_net(EXACT.graph(graph).spec), out, exact=True, stdout=stdout)
    assert tau == psi


@pytest.mark.parametrize("graph", ["z7-124", "q3", "petersen"])
@pytest.mark.parametrize("corrupt, message", [
    (duplicate_slot, "carries two packets"),
    (drop_last_letter, None),  # a shorter word fails at the route or delivery check, whichever comes first
])
def test_corrupted_schedule_is_rejected(graph, corrupt, message, tmp_path):
    out, _ = pipeline(graph, tmp_path)
    write_rows(out, corrupt(rows(out)))
    with pytest.raises(CheckError, match=message):
        check_exchange(build_net(EXACT.graph(graph).spec), out, exact=False, stdout=None)


def test_factor_off_the_graph_is_rejected(tmp_path):
    out, _ = pipeline("petersen", tmp_path)
    doc = json.loads((out / "factorization.json").read_text())
    first = doc["factors"][0]
    first[0], first[1] = first[1], first[0]  # still a bijection, but 0 -> first[1] is no arc of 0's
    (out / "factorization.json").write_text(json.dumps(doc))
    with pytest.raises(CheckError, match="out-arcs"):
        check_exchange(build_net(EXACT.graph("petersen").spec), out, exact=False, stdout=None)
