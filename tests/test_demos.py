"""Every script in demos/ and every library example in the docs runs against the current API."""

import hashlib
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import alltoall

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# each demo's stdout, pinned byte for byte; a change that means to alter one updates its hash and says why
DEMO_STDOUT_SHA256 = {
    "network_shootout.py": "63eac3f7545786503f12495fc013eee801e0ce880902fb9e9c6df53637c5ccd1",
    "petersen_route.py": "498a3a46a3d025a185b95423404a8832450cba4d768cf71b01c72ac6e08de0ec",
    "ring_walkthrough.py": "4e89ffc358b4e6dee324a62434934d506e63a6dd861c0315d02107056684369c",
}


@pytest.mark.parametrize("script", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(script)], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == DEMO_STDOUT_SHA256[script.name], proc.stdout


def library_examples():
    """The README's python blocks and the indented example in the package docstring."""
    readme = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(encoding="utf-8"), re.DOTALL)
    docstring = "".join(line + "\n" for line in alltoall.__doc__.splitlines() if line.startswith("    "))
    assert readme and docstring, "an example went missing from the docs"
    return [pytest.param(code, id=f"README-{i}") for i, code in enumerate(readme)] + [
        pytest.param(textwrap.dedent(docstring), id="package-docstring")]


@pytest.mark.parametrize("code", library_examples())
def test_library_example_runs(code):
    # the examples use the package's modules unqualified, as after `from alltoall import *`
    exec(compile(code, "<example>", "exec"), {name: getattr(alltoall, name) for name in alltoall.__all__})
