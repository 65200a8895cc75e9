"""What a fresh process pays to start: the modules `import alltoall.cli` loads, and the cost model on demand."""

import json
import os
import subprocess
import sys
import textwrap

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")
# heavy modules no command but `compare` needs; site may preload some, so only additions count
HEAVY = ("dataclasses", "inspect", "fractions", "decimal", "csv", "alltoall.costmodel")


def run_fresh(script: str, *args: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, "-c", textwrap.dedent(script), *args],
                          capture_output=True, text=True, env=env, timeout=60)


def test_importing_the_cli_loads_no_heavy_module():
    done = run_fresh("""
        import json, sys
        before = set(sys.modules)
        import alltoall.cli
        print(json.dumps(sorted(set(sys.modules) - before)))
    """)
    assert done.returncode == 0, done.stderr
    added = json.loads(done.stdout)
    assert "alltoall.cli" in added
    assert [name for name in HEAVY if name in added] == []


def test_the_cost_model_resolves_on_first_use():
    done = run_fresh("""
        import sys
        import alltoall
        print("alltoall.costmodel" in sys.modules, alltoall.costmodel.CostParams.__name__,
              "alltoall.costmodel" in sys.modules, "costmodel" in alltoall.__all__)
        try:
            alltoall.no_such_module
        except AttributeError as exc:
            print(exc)
    """)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "False CostParams True True", "module 'alltoall' has no attribute 'no_such_module'"]


def test_compare_loads_the_cost_model_and_exits_0(tmp_path):
    for name, p, d in (("ring", 64, 2), ("cube", 64, 6)):
        (tmp_path / f"{name}.json").write_text(json.dumps({"name": name, "P": p, "d": d, "D": 3, "rho": 1}))
    done = run_fresh("""
        import sys
        from alltoall.cli import main
        code = main(["compare", "--gamma-max", "1000", "--ranking", sys.argv[2], sys.argv[1] + "/ring.json",
                     sys.argv[1] + "/cube.json"])
        print(code, "alltoall.costmodel" in sys.modules, file=sys.stderr)
    """, str(tmp_path), str(tmp_path / "ranking.csv"))
    assert done.returncode == 0, done.stderr
    assert done.stderr == "0 True\n"
    assert json.loads(done.stdout)["ranking"] == ["cube", "ring"]
    assert (tmp_path / "ranking.csv").read_text().splitlines()[0] == "rank,name,P,d,D,wire_cost,compute,exchange,total"
