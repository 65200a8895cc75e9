"""The tracer wraps functions wherever they are bound and survives removed names.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import sys
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from spans import Tracer  # noqa: E402


def fake_package(monkeypatch) -> types.ModuleType:
    """A package with a layers module and a cli module that imported from it, nothing else."""
    layers = types.ModuleType("fakepkg.layers")

    def _bfs_distances(g, base):
        return [0]

    def layer_profile(g):
        return [layers._bfs_distances(g, src) for src in range(3)]

    layers._bfs_distances = _bfs_distances
    layers.layer_profile = layer_profile
    cli = types.ModuleType("fakepkg.cli")
    cli.layer_profile = layer_profile  # as "from .layers import layer_profile" binds it
    for name, mod in (("fakepkg", types.ModuleType("fakepkg")), ("fakepkg.layers", layers), ("fakepkg.cli", cli)):
        monkeypatch.setitem(sys.modules, name, mod)
    return cli


def test_wraps_every_binding_and_reports_missing_names(monkeypatch):
    cli = fake_package(monkeypatch)
    original = cli.layer_profile
    tracer = Tracer()
    tracer.install("fakepkg")
    root = tracer.open("cli.bounds")
    cli.layer_profile(None)
    tracer.close(root)
    tracer.uninstall()

    assert cli.layer_profile is original
    assert "simulate.run_transpose" in tracer.absent
    assert "groups.CyclicGroup.check_element" in tracer.absent
    m = tracer.metrics()
    assert m["layers.bfs_runs"] == 3
    assert m["layers.profile_s"] > 0
    assert m["simulate.replay_s"] == 0
    assert 0 <= m["cli.self_s"] <= tracer.spans[root].end - tracer.spans[root].start
    assert [s.name for s in tracer.spans] == ["cli.bounds", "layers.profile"]
    assert tracer.spans[1].parent == 0
