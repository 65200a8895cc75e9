"""Hardware-cost arithmetic for comparing exchange networks.

A network with P processors of degree d costs P*(rho + d) wire-equivalents,
where rho prices a processor in wires.  Against that budget the model splits
an iterative matrix workload into compute time (perfect P-way speedup) and
exchange time (per-pair payload shrinks with P^2, but tau exchange rounds
are needed), and exposes the asymptotic regime where the two trade off.

All formulas are plain arithmetic on whatever number type the caller
supplies; integers and Fractions pass through undamaged, so exactness tests
can demand equality rather than tolerances.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Mapping, NamedTuple, Sequence

from .errors import InputError


def _div(a, b):
    """Division that keeps int/Fraction inputs exact instead of going float."""
    if isinstance(a, (int, Fraction)) and isinstance(b, (int, Fraction)):
        out = Fraction(a) / Fraction(b)
        return int(out) if out.denominator == 1 else out
    return a / b


class _CostParamsFields(NamedTuple):
    processors: int
    degree: int
    avg_diameter: float
    cost_ratio: float
    matrix_dim: int
    iterations: int
    alpha_coeff: float = 1
    alpha_power: float = 1


class CostParams(_CostParamsFields):
    """One network + workload configuration.

    avg_diameter is real-valued (the pre-ceiling average distance); the
    work function is the monomial alpha(N) = alpha_coeff * N**alpha_power.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for name in ("processors", "degree", "avg_diameter", "matrix_dim", "iterations", "alpha_coeff"):
            if getattr(self, name) <= 0:
                raise InputError(f"{name} must be positive, got {getattr(self, name)!r}")
        if self.cost_ratio < 0:
            raise InputError(f"cost_ratio must be non-negative, got {self.cost_ratio!r}")
        if self.alpha_power < 0:
            raise InputError(f"alpha_power must be non-negative, got {self.alpha_power!r}")
        return self

    def alpha(self, n=None):
        """Per-element work alpha(N)."""
        if n is None:
            n = self.matrix_dim
        return self.alpha_coeff * n ** self.alpha_power


def network_cost(processors, degree, cost_ratio):
    """Total cost in wire units: P * (rho + d)."""
    return processors * (cost_ratio + degree)


class TimeBreakdown(NamedTuple):
    """Compute, exchange, and total time; optimistic marks an ideal tau, D*P/d, in place of a measured one."""

    compute: float
    exchange: float
    total: float
    tau: float
    optimistic: bool


def model_times(params: CostParams, tau=None) -> TimeBreakdown:
    """T_p = N*M*alpha(N)/P and T_c = M*(N/P)^2 * tau.

    A supplied tau (e.g. from the simulator) is used as measured; with none,
    the model optimistically takes tau = D*P/d, which simplifies T_c to
    M*N^2*D/(P*d).  Results carry the optimistic flag so downstream output
    can label them.
    """
    p = params.processors
    n = params.matrix_dim
    m = params.iterations
    compute = _div(n * m * params.alpha(), p)
    optimistic = tau is None
    if optimistic:
        tau = _div(params.avg_diameter * p, params.degree)
        exchange = _div(m * n * n * params.avg_diameter, p * params.degree)
    else:
        exchange = _div(m * n * n * tau, p * p)
    return TimeBreakdown(
        compute=compute, exchange=exchange, total=compute + exchange, tau=tau, optimistic=optimistic
    )


class RegimeTime(NamedTuple):
    """The constrained-cost regime evaluation.

    reduced is the objective divided through to its shape beta*gamma^(1/(D+1)) + D
    (only defined for linear work, alpha_power == 1); assumption_holds flags
    the regime's premise that wires dominate processor cost (d > rho).
    """

    total: float
    lam: float
    reduced: float | None
    assumption_holds: bool


def regime_time(params: CostParams, gamma) -> RegimeTime:
    """T = N*M*alpha(N)*lambda^(D/(D+1)) + D*N^2*lambda with lambda = 1/gamma.

    Models the best achievable split once the whole cost budget gamma is
    spent: compute shrinks like a fractional power of the budget while the
    exchange term pays the full diameter.
    """
    if gamma <= 1:
        raise InputError(f"regime needs gamma > 1 (lambda < 1), got {gamma!r}")
    lam = _div(1, gamma)
    dd = params.avg_diameter
    n = params.matrix_dim
    m = params.iterations
    total = n * m * params.alpha() * lam ** (dd / (dd + 1)) + dd * n * n * lam
    reduced = None
    if params.alpha_power == 1:
        reduced = params.alpha_coeff * gamma ** (1 / (dd + 1)) + dd
    return RegimeTime(
        total=total,
        lam=lam,
        reduced=reduced,
        assumption_holds=params.degree > params.cost_ratio,
    )


class RankedNetwork(NamedTuple):
    name: str
    params: CostParams
    wire_cost: float  # P*d, the quantity the budget constrains
    times: TimeBreakdown


class ComparisonVerdict(NamedTuple):
    """Outcome of a constrained comparison.

    ranking holds the surviving networks best first; eliminated the ones
    whose P*d broke the budget.  winner is None when nothing survived.
    """

    ranking: tuple[RankedNetwork, ...]
    eliminated: tuple[tuple[str, float], ...]
    winner: str | None
    explanation: str


def _require_finite(name: str, what: str, value) -> None:
    if isinstance(value, float) and not math.isfinite(value):
        raise InputError(f"network {name!r}: {what} is {value}, outside floating-point range")


def compare_networks(
    candidates: Mapping[str, CostParams] | Sequence[tuple[str, CostParams]],
    gamma_max,
    taus: Mapping[str, float] | None = None,
) -> ComparisonVerdict:
    """Rank networks under a wire budget: P*d < gamma_max, more processors wins.

    Ties on processor count fall to the smaller modeled total time.  Times
    come from the ideal (optimistic) mode unless measured taus are supplied,
    which must then cover every candidate.  Both time components ride along
    for transparency.  A NaN budget, and a float wire cost or modelled time
    that overflows to infinity or NaN, raise InputError: neither ranks.
    """
    if gamma_max != gamma_max:
        raise InputError("the wire budget gamma_max is NaN")
    if isinstance(candidates, Mapping):
        candidates = list(candidates.items())
    if len(candidates) < 2:
        raise InputError(f"need at least two networks to compare, got {len(candidates)}")
    names = [name for name, _ in candidates]
    if len(set(names)) != len(names):
        raise InputError(f"duplicate network names in {names}")
    measured = taus is not None
    if measured:
        missing = [name for name in names if name not in taus]
        if missing:
            raise InputError(f"measured comparison is missing tau for {missing}")
    survivors: list[RankedNetwork] = []
    eliminated: list[tuple[str, float]] = []
    for name, params in candidates:
        wire_cost = params.processors * params.degree
        _require_finite(name, "wire cost P*d", wire_cost)
        if not (wire_cost < gamma_max):
            eliminated.append((name, wire_cost))
            continue
        times = model_times(params, tau=taus[name] if measured else None)
        _require_finite(name, "modelled time", times.total)
        survivors.append(RankedNetwork(name=name, params=params, wire_cost=wire_cost, times=times))
    survivors.sort(key=lambda r: (-r.params.processors, r.times.total, r.name))
    if not survivors:
        return ComparisonVerdict(
            ranking=(),
            eliminated=tuple(eliminated),
            winner=None,
            explanation=f"every candidate breaks the wire budget P*d < {gamma_max}",
        )
    winner = survivors[0]
    why = f"largest processor count under the budget ({winner.params.processors})"
    if len(survivors) > 1 and survivors[1].params.processors == winner.params.processors:
        why = f"processor tie broken by smaller modeled time ({winner.times.total} vs {survivors[1].times.total})"
    return ComparisonVerdict(
        ranking=tuple(survivors),
        eliminated=tuple(eliminated),
        winner=winner.name,
        explanation=why,
    )
