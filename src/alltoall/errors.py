"""Exception types shared across the package.

Everything user-facing derives from InputError so the command-line layer can
map bad inputs to one exit code without enumerating causes.
"""


class InputError(ValueError):
    """Malformed or inconsistent user input (specs, descriptors, artifacts)."""


class CapacityError(InputError):
    """An enumeration exceeded its element cap before closing."""


class StructureError(InputError):
    """Elements or groups that cannot be combined (wrong degree, modulus, arity)."""


class SubgroupError(InputError):
    """A declared subgroup is not closed under the group operations."""


class CosetEdgeError(InputError):
    """Generator/subgroup pair whose coset edges are not well defined."""


class ConnectivityError(InputError):
    """Graph is not strongly connected, so distances are undefined."""


class RegularityError(InputError):
    """Digraph is not regular of the required degree."""


class UnsupportedGraphError(InputError):
    """A routine was asked to run outside its structural scope."""


class SearchBudgetError(RuntimeError):
    """An exhaustive search ran out of its node budget before deciding."""
