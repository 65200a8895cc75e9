"""One set-up, the work a user's process does before its first command.

    python3 perfbench/setup_child.py SRC OUTDIR < specs.json

Imports ``alltoall.cli`` from SRC, writes each spec document of the JSON
object on standard input ({graph name: spec}) to OUTDIR/<name>/spec.json,
parses it with ``alltoall.specfile.load_spec_file`` and prints "ready".
run.py times fresh processes of this script for ``setup_s``, so it imports
nothing of the benchmark's own.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def write_specs(specs: dict[str, dict], outdir: Path) -> dict[str, Path]:
    """Write and parse each spec file; returns their paths by graph name."""
    from alltoall.specfile import load_spec_file

    paths = {}
    for name, spec in specs.items():
        path = outdir / name / "spec.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(spec), encoding="utf-8")
        load_spec_file(str(path))
        paths[name] = path
    return paths


if __name__ == "__main__":
    sys.path.insert(0, sys.argv[1])
    import alltoall.cli  # noqa: F401  (the import users pay on every command)

    write_specs(json.load(sys.stdin), Path(sys.argv[2]))
    print("ready", flush=True)
