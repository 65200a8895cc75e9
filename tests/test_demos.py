"""Every script in demos/ and every library example in the docs runs against the current API."""

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


@pytest.mark.parametrize("script", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(script)], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


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
