"""Transpose scheduling on vertex-symmetric networks.

Build Cayley coset graphs from small finite groups, measure their distance
profiles and the average-time lower bound, pick shortest-word sets and
1-factorizations, assign conflict-free time slots, and replay the resulting
all-to-all exchange on an independent simulator.  A cost model for
degree/diameter trade-offs and a CLI (``alltoall``) sit on top.

The usual flow:

    spec = fixtures.builtin_spec("z7-124")
    g = graphs.build_cayley_coset_graph(spec)
    ws = words.bfs_word_set(g, layers.layer_profile(g))
    plan, sched = scheduling.schedule_plan(g, ws, "exact", scheduling.DEFAULT_SCHEDULE_BUDGET)
    trace = simulate.run_transpose(g, plan, sched)
    assert trace.clean
"""

from . import factorization, fixtures, graphs, groups, layers, scheduling, simulate, specfile, words
from .errors import (
    CapacityError,
    ConnectivityError,
    CosetEdgeError,
    InputError,
    RegularityError,
    SearchBudgetError,
    StructureError,
    SubgroupError,
    UnsupportedGraphError,
)

__all__ = [
    "costmodel",
    "factorization",
    "fixtures",
    "graphs",
    "groups",
    "layers",
    "scheduling",
    "simulate",
    "specfile",
    "words",
    "CapacityError",
    "ConnectivityError",
    "CosetEdgeError",
    "InputError",
    "RegularityError",
    "SearchBudgetError",
    "StructureError",
    "SubgroupError",
    "UnsupportedGraphError",
]

__version__ = "0.1.0"


def __getattr__(name):
    """Load `costmodel` on first use (PEP 562): only `compare` needs it, so no other command pays its import."""
    if name == "costmodel":
        import alltoall.costmodel  # binds the submodule on this package
        return alltoall.costmodel
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
