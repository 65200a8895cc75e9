"""The builtins' artifacts and printed output, pinned byte for byte by SHA-256.

Each builtin runs `pipeline` (exact and greedy), `factorize`, `factorize
--search`, `schedule`, and `schedule`/`simulate` over the searched
factorization.  Every file a command writes, and its exit code, stdout and
stderr, must hash as in tests/pinned_outputs.json.  A change that means to
alter an output rewrites the table with

    PYTHONPATH=src python tests/test_pinned_outputs.py > tests/pinned_outputs.json

and says which outputs changed and why.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

from alltoall import fixtures
from alltoall.cli import main

TABLE = Path(__file__).with_name("pinned_outputs.json")
COMMANDS = {
    "pipeline-exact": ("pipeline", "{src}", "--outdir", "exact"),
    "pipeline-greedy": ("pipeline", "{src}", "--method", "greedy", "--outdir", "greedy"),
    "factorize": ("factorize", "{src}", "--out", "factorization.json"),
    "factorize-search": ("factorize", "{src}", "--search", "--out", "searched.json"),
    "schedule": ("schedule", "{src}", "--csv", "schedule.csv", "--out", "schedule.json"),
    "schedule-factorization": ("schedule", "{src}", "--factorization", "searched.json",
                               "--csv", "factor-schedule.csv", "--out", "factor-schedule.json"),
    "simulate-factorization": ("simulate", "{src}", "--factorization", "searched.json",
                               "--schedule", "factor-schedule.csv", "--trace", "trace.csv", "--out", "verdict.json"),
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def builtin_outputs(name: str) -> dict:
    """Run COMMANDS in order on one builtin in a fresh directory; the hashes of everything they leave or print."""
    printed = {}
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            for label, argv in COMMANDS.items():
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main([a for arg in argv for a in (("--builtin", name) if arg == "{src}" else (arg,))])
                printed[label] = [code, sha256(out.getvalue().encode()), sha256(err.getvalue().encode())]
            files = {str(f.relative_to(work)): sha256(f.read_bytes())
                     for f in sorted(Path(work).rglob("*")) if f.is_file()}
        finally:
            os.chdir(here)
    return {"printed": printed, "files": files}


@pytest.mark.parametrize("name", sorted(fixtures.BUILTIN_SPECS))
def test_builtin_outputs_match_their_pinned_hashes(name):
    assert builtin_outputs(name) == json.loads(TABLE.read_text(encoding="utf-8"))[name]


if __name__ == "__main__":
    json.dump({name: builtin_outputs(name) for name in sorted(fixtures.BUILTIN_SPECS)}, sys.stdout, indent=1)
    sys.stdout.write("\n")
