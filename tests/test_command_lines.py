"""Every command line the benchmark and the README pass still parses.

The benchmark's workloads and the README's examples call the command line
by option name, so an option removed from the parser but still passed there
fails here rather than in a benchmark run or in a reader's shell.
"""

import re
import shlex
import sys
import types
from pathlib import Path

from alltoall.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent


def ladder_workloads():
    """perfbench/ladder.py's WORKLOADS, its source run in a fresh module so that nothing is written beside it."""
    path = ROOT / "perfbench" / "ladder.py"
    ladder = types.ModuleType("perfbench_ladder")
    ladder.__file__ = str(path)
    sys.modules[ladder.__name__] = ladder  # dataclasses look their module up while the source runs
    try:
        exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), ladder.__dict__)
    finally:
        del sys.modules[ladder.__name__]
    return ladder.WORKLOADS


def ladder_command_lines():
    """Every command line of every workload, placeholders filled in."""
    for wl in ladder_workloads().values():
        for op in wl.ops:
            src = wl.graph(op.graph).source_args("spec.json")
            for template in op.argvs:
                argv = []
                for arg in template:
                    argv.extend(src if arg == "{src}" else [arg.replace("{out}", "out")])
                yield argv


def readme_command_lines():
    """Every `alltoall ...` line of README.md, shell redirections stripped."""
    for line in (ROOT / "README.md").read_text(encoding="utf-8").splitlines():
        if line.startswith("alltoall "):
            argv = []
            for token in shlex.split(line)[1:]:
                if re.match(r"[0-9]*[<>|]", token):
                    break
                argv.append(token)
            yield argv


def unparsed(command_lines):
    """The command lines build_parser() rejects."""
    bad = []
    for argv in command_lines:
        try:
            build_parser().parse_args(argv)
        except SystemExit:
            bad.append(" ".join(argv))
    return bad


def test_benchmark_command_lines_parse():
    lines = list(ladder_command_lines())
    assert len(lines) >= 30
    assert unparsed(lines) == []


def test_readme_command_lines_parse():
    lines = list(readme_command_lines())
    assert len(lines) >= 5
    assert unparsed(lines) == []
