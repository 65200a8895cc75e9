"""Wire-cost arithmetic, time model, asymptotic regime, network comparison."""

from fractions import Fraction

import pytest

from alltoall.costmodel import (
    CostParams,
    compare_networks,
    model_times,
    network_cost,
    regime_time,
)
from alltoall.errors import InputError


def params(**kw):
    base = dict(
        processors=1024,
        degree=10,
        avg_diameter=5,
        cost_ratio=100,
        matrix_dim=64,
        iterations=10,
    )
    base.update(kw)
    return CostParams(**base)


def test_network_cost_example():
    assert network_cost(1024, 10, 100) == 112640


def test_params_validation():
    with pytest.raises(InputError):
        params(processors=0)
    with pytest.raises(InputError, match=r"^cost_ratio must be non-negative, got -1$"):
        params(cost_ratio=-1)
    with pytest.raises(InputError, match=r"^alpha_power must be non-negative, got -0.5$"):
        params(alpha_power=-0.5)


def test_alpha_monomial():
    p = params(alpha_coeff=2, alpha_power=2)
    assert p.alpha() == 2 * 64**2
    assert p.alpha(10) == 200


def test_measured_times_are_exact_integers():
    p = params(processors=8, matrix_dim=16, iterations=3, avg_diameter=2, degree=4)
    out = model_times(p, tau=4)
    assert out.compute == 16 * 3 * 16 // 8
    assert out.exchange == 3 * 16 * 16 * 4 // 64
    assert out.total == out.compute + out.exchange
    assert out.tau == 4
    assert not out.optimistic


def test_measured_times_keep_fractions_exact():
    p = params(processors=12, matrix_dim=5, iterations=7, avg_diameter=3, degree=4)
    out = model_times(p, tau=2)
    assert out.compute == Fraction(5 * 7 * 5, 12)
    assert out.exchange == Fraction(7 * 25 * 2, 144)
    assert isinstance(out.compute, Fraction)


def test_ideal_times_and_tau():
    p = params(processors=8, matrix_dim=16, iterations=3, avg_diameter=2, degree=4)
    out = model_times(p)
    assert out.tau == 4  # D*P/d = 2*8/4
    assert out.exchange == 3 * 16 * 16 * 2 // (8 * 4)
    assert out.optimistic
    measured = model_times(p, tau=4)
    assert out.exchange == measured.exchange  # same tau, same cost


def test_regime_reduced_form():
    p = params(avg_diameter=1, alpha_coeff=1, alpha_power=1)
    out = regime_time(p, gamma=4096)
    assert out.reduced == 1 * 4096 ** (1 / 2) + 1 == 65
    p3 = params(avg_diameter=3)
    assert regime_time(p3, gamma=4096).reduced == 4096 ** (1 / 4) + 3 == 11
    assert out.assumption_holds is False  # degree 10 < rho 100
    assert regime_time(params(cost_ratio=2), gamma=10).assumption_holds


def test_regime_total_dyadic_case():
    # lambda = 1/16, D = 1: exponent 1/2 stays exact in binary floats
    p = CostParams(
        processors=4, degree=2, avg_diameter=1, cost_ratio=0,
        matrix_dim=2, iterations=2, alpha_coeff=1, alpha_power=1,
    )
    out = regime_time(p, gamma=16)
    assert out.lam == Fraction(1, 16)
    assert out.total == 2 * 2 * 2 * (1 / 4) + 1 * 4 * Fraction(1, 16) == 2.25
    assert regime_time(p, gamma=16).reduced == 5


def test_regime_rejects_small_gamma():
    with pytest.raises(InputError):
        regime_time(params(), gamma=1)


def test_regime_reduced_none_for_nonlinear_work():
    assert regime_time(params(alpha_power=2), gamma=8).reduced is None


def contenders():
    a = CostParams(processors=4096, degree=8, avg_diameter=6, cost_ratio=64,
                   matrix_dim=256, iterations=4)
    b = CostParams(processors=1024, degree=10, avg_diameter=5, cost_ratio=64,
                   matrix_dim=256, iterations=4)
    return {"a": a, "b": b}


def test_compare_picks_more_processors():
    verdict = compare_networks(contenders(), gamma_max=40000)
    assert verdict.winner == "a"
    assert [r.name for r in verdict.ranking] == ["a", "b"]
    assert verdict.eliminated == ()
    assert "4096" in verdict.explanation


def test_compare_budget_is_strict():
    nets = contenders()
    # a's wire cost is exactly 4096*8 = 32768; the budget must exceed it
    assert compare_networks(nets, gamma_max=32769).winner == "a"
    verdict = compare_networks(nets, gamma_max=32768)
    assert verdict.winner == "b"
    assert verdict.eliminated == (("a", 32768),)


def test_compare_nothing_survives():
    verdict = compare_networks(contenders(), gamma_max=2)
    assert verdict.winner is None
    assert verdict.ranking == ()
    assert "budget" in verdict.explanation


def test_compare_tie_breaks_on_time():
    slow = CostParams(processors=64, degree=4, avg_diameter=9, cost_ratio=1,
                      matrix_dim=32, iterations=2)
    fast = CostParams(processors=64, degree=4, avg_diameter=3, cost_ratio=1,
                      matrix_dim=32, iterations=2)
    verdict = compare_networks({"slow": slow, "fast": fast}, gamma_max=10**6)
    assert verdict.winner == "fast"
    assert "tie" in verdict.explanation


def test_compare_measured_mode():
    verdict = compare_networks(contenders(), gamma_max=10**6, taus={"a": 900, "b": 200})
    assert verdict.winner == "a"  # processor count still dominates
    assert not verdict.ranking[0].times.optimistic
    with pytest.raises(InputError, match="missing tau"):
        compare_networks(contenders(), gamma_max=10**6, taus={"a": 900})


def test_compare_input_validation():
    only = {"a": contenders()["a"]}
    with pytest.raises(InputError, match="at least two"):
        compare_networks(only, gamma_max=100)
    dup = [("a", contenders()["a"]), ("a", contenders()["b"])]
    with pytest.raises(InputError, match="duplicate"):
        compare_networks(dup, gamma_max=100)


def test_compare_accepts_pair_sequence():
    verdict = compare_networks(list(contenders().items()), gamma_max=40000)
    assert verdict.winner == "a"


def test_compare_refuses_a_nan_budget_and_numbers_past_float_range():
    with pytest.raises(InputError, match="gamma_max is NaN"):
        compare_networks(contenders(), gamma_max=float("nan"))
    huge = {**contenders(), "huge": CostParams(processors=1e300, degree=1e10, avg_diameter=1, cost_ratio=64,
                                                matrix_dim=256, iterations=4)}
    with pytest.raises(InputError, match="'huge': wire cost P\\*d is inf"):
        compare_networks(huge, gamma_max=40000)
    with pytest.raises(InputError, match="'a': modelled time is inf"):
        compare_networks(contenders(), gamma_max=10**6, taus={"a": 1e308, "b": 200})
    assert compare_networks(contenders(), gamma_max=float("inf")).winner == "a"  # no budget is a budget
