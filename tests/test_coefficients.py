import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import integrate as sint

from nsfourier.coefficients import (ConductivityLaw, RenormFunction,
                                    ViscosityLaw, check_h_admissible,
                                    eval_conductivity, eval_renorm,
                                    eval_viscosity, kirchhoff_K,
                                    kirchhoff_K_inverse)
from nsfourier.errors import CapabilityError


@pytest.fixture
def canonical():
    return ConductivityLaw(kappa_lo=1.0)


def test_viscosity_degenerate_at_zero():
    law = ViscosityLaw(slope=1.0, theta_bar=1.0)
    assert eval_viscosity(law, 0.0) == 0.0


def test_viscosity_linear_range():
    law = ViscosityLaw(slope=1.0, theta_bar=1.0)
    assert eval_viscosity(law, 0.5) == 0.5


def test_viscosity_plateau():
    law = ViscosityLaw(slope=1.0, theta_bar=1.0)
    assert eval_viscosity(law, 10.0) == 1.0


def test_viscosity_negative_theta_rejected():
    law = ViscosityLaw(slope=1.0, theta_bar=1.0)
    with pytest.raises(ValueError):
        eval_viscosity(law, -0.1)


@pytest.mark.parametrize("params", [dict(slope=math.nan, theta_bar=1.0),
                                    dict(slope=1.0, theta_bar=math.nan),
                                    dict(slope=math.inf, theta_bar=1.0),
                                    dict(slope=1.0, theta_bar=-math.inf),
                                    dict(slope=0.0, theta_bar=1.0)])
def test_viscosity_law_rejects_non_finite_parameters(params):
    with pytest.raises(ValueError, match="positive and finite"):
        ViscosityLaw(**params)


@given(st.floats(1e-6, 1.0))
def test_viscosity_slope_lower_bound(theta):
    law = ViscosityLaw(slope=2.0, theta_bar=1.0)
    assert eval_viscosity(law, theta) / theta >= 2.0 - 1e-12


@given(st.floats(0.0, 50.0), st.floats(0.0, 50.0))
def test_viscosity_lipschitz(a, b):
    law = ViscosityLaw(slope=3.0, theta_bar=2.0)
    assert abs(eval_viscosity(law, a) - eval_viscosity(law, b)) \
        <= law.slope * abs(a - b) + 1e-12


def test_conductivity_at_zero(canonical):
    assert eval_conductivity(canonical, 0.0) == 1.0


def test_conductivity_quadratic(canonical):
    assert eval_conductivity(canonical, 2.0) == 5.0


def test_conductivity_growth_bounds():
    law = ConductivityLaw(kappa_lo=2.0)
    assert eval_conductivity(law, 1.0) == 4.0


@given(st.floats(0.0, 100.0))
def test_conductivity_bounds_random(theta):
    law = ConductivityLaw(kappa_lo=0.5)
    assert eval_conductivity(law, theta) == 0.5 * (1.0 + theta * theta)


@pytest.mark.parametrize("bounds", [dict(kappa_lo=math.nan),
                                    dict(kappa_lo=math.inf),
                                    dict(kappa_lo=-math.inf),
                                    dict(kappa_lo=0.0),
                                    dict(kappa_lo=-1.0)])
def test_conductivity_law_rejects_non_finite_bounds(bounds):
    with pytest.raises(ValueError, match="positive and finite"):
        ConductivityLaw(**bounds)


def test_kirchhoff_zero(canonical):
    assert kirchhoff_K(canonical, 0.0) == 0.0


def test_kirchhoff_closed_form(canonical):
    assert kirchhoff_K(canonical, 2.0) == pytest.approx(14.0 / 3.0, rel=1e-14)
    assert kirchhoff_K(canonical, 1.0) == pytest.approx(4.0 / 3.0, rel=1e-14)


def test_kirchhoff_inverse_zero(canonical):
    assert kirchhoff_K_inverse(canonical, 0.0) == 0.0


def test_kirchhoff_inverse_closed_form(canonical):
    assert kirchhoff_K_inverse(canonical, 14.0 / 3.0) == pytest.approx(2.0, abs=1e-10)


@pytest.mark.parametrize("theta", [0.1, 1.0, 7.0])
def test_kirchhoff_round_trip(canonical, theta):
    assert kirchhoff_K_inverse(canonical, kirchhoff_K(canonical, theta)) \
        == pytest.approx(theta, abs=1e-8)


def test_transforms_without_closed_form_raise(canonical):
    custom = RenormFunction.from_callables(lambda z: 1.0 / (1.0 + np.asarray(z)))
    for h in (custom, RenormFunction.truncated_log(0.5, 5.0)):
        with pytest.raises(CapabilityError):
            eval_renorm(h, canonical, 1.0)
        with pytest.raises(CapabilityError):
            eval_renorm(h, canonical, np.ones(3))


@pytest.mark.parametrize("l", [1.0, 0.5, 0.25])
def test_one_evaluation_gives_h_dh_H_and_K_h(l):
    # the power family's four values come from one power p = (1+theta)^(-l)
    # and equal what h's own callables give, bitwise
    law = ConductivityLaw(kappa_lo=0.7)
    h = RenormFunction.power(l)
    theta = np.linspace(0.0, 30.0, 301)
    values = eval_renorm(h, law, theta)
    assert np.array_equal(values.h, h.h(theta))
    assert np.array_equal(values.dh, h.dh(theta))
    # against the closed forms with their own powers
    t = 1.0 + theta
    assert np.allclose(values.h, t ** (-l), rtol=1e-15, atol=0.0)
    assert np.allclose(values.dh, -l * t ** (-l - 1.0), rtol=1e-15, atol=0.0)
    if l == 1.0:
        H, third = np.log1p(theta), 2.0 * np.log(t)
    else:
        H = (t ** (1.0 - l) - 1.0) / (1.0 - l)
        third = 2.0 * (t ** (1.0 - l) - 1.0) / (1.0 - l)
    K_h = law.kappa_lo * ((t ** (3.0 - l) - 1.0) / (3.0 - l)
                          - 2.0 * (t ** (2.0 - l) - 1.0) / (2.0 - l) + third)
    assert np.allclose(values.H, H, rtol=1e-14, atol=1e-300)
    assert np.allclose(values.K_h, K_h, rtol=1e-14, atol=1e-300)


def test_K_h_where_an_exponent_meets_l(canonical):
    # l = 2: the t^(2-l) term integrates to a logarithm
    h = RenormFunction.power(2.0)
    theta = 1.5
    ref = sint.quad(lambda z: eval_conductivity(canonical, z) * (1.0 + z) ** -2.0,
                    0.0, theta, epsabs=0, epsrel=1e-13)[0]
    assert eval_renorm(h, canonical, theta).K_h == pytest.approx(ref, rel=1e-12)


@pytest.mark.parametrize("make", [
    lambda: RenormFunction.power(math.nan),
    lambda: RenormFunction.power(math.inf),
    lambda: RenormFunction.truncated_log(math.nan, 5.0),
    lambda: RenormFunction.truncated_log(0.5, math.nan),
    lambda: RenormFunction.truncated_log(0.5, math.inf),
    lambda: check_h_admissible(RenormFunction.power(1.0), math.nan, 10),
    lambda: check_h_admissible(RenormFunction.power(1.0), math.inf, 10),
    lambda: check_h_admissible(RenormFunction.power(1.0), 0.0, 10),
    lambda: check_h_admissible(RenormFunction.power(1.0), -5.0, 10),
], ids=["power-nan", "power-inf", "log-omega-nan", "log-cutoff-nan",
        "log-cutoff-inf", "zmax-nan", "zmax-inf", "zmax-0", "zmax-neg"])
def test_renorm_arguments_must_be_finite_and_in_range(make):
    with pytest.raises(ValueError):
        make()


def test_H_log_form(canonical):
    h = RenormFunction.power(1.0)
    assert eval_renorm(h, canonical, 1.0).H == pytest.approx(math.log(2.0), rel=1e-14)


def test_H_at_zero(canonical):
    assert eval_renorm(RenormFunction.power(0.7), canonical, 0.0).H == 0.0


def test_H_sqrt_form(canonical):
    h = RenormFunction.power(0.5)
    assert eval_renorm(h, canonical, 3.0).H == pytest.approx(2.0, rel=1e-14)


def test_H_derivative_matches_h(canonical):
    h = RenormFunction.power(0.8)
    step = 1e-5
    for theta in (0.3, 1.2, 4.0):
        fd = (eval_renorm(h, canonical, theta + step).H
              - eval_renorm(h, canonical, theta - step).H) / (2 * step)
        assert fd == pytest.approx(float(h.h(theta)), rel=1e-8)


def test_K_h_closed_form(canonical):
    h = RenormFunction.power(1.0)
    expected = 0.5 - 1.0 + 2.0 * math.log(2.0)
    assert eval_renorm(h, canonical, 1.0).K_h == pytest.approx(expected, rel=1e-13)


def test_K_h_at_zero(canonical):
    assert eval_renorm(RenormFunction.power(0.5), canonical, 0.0).K_h == 0.0


@pytest.mark.parametrize("l", [1.0, 0.5, 0.3])
@pytest.mark.parametrize("theta", [0.5, 2.0, 5.0])
def test_K_h_closed_form_vs_quadrature(canonical, l, theta):
    h = RenormFunction.power(l)
    ref, _ = sint.quad(lambda z: (1.0 + z ** 2) * (1.0 + z) ** (-l),
                       0.0, theta, epsabs=1e-14, epsrel=1e-12)
    assert eval_renorm(h, canonical, theta).K_h == pytest.approx(ref, rel=1e-10)


def test_K_h_derivative_matches_kappa_h(canonical):
    h = RenormFunction.power(0.5)
    step = 1e-5
    for theta in (0.5, 2.0):
        fd = (eval_renorm(h, canonical, theta + step).K_h
              - eval_renorm(h, canonical, theta - step).K_h) / (2 * step)
        ref = eval_conductivity(canonical, theta) * float(h.h(theta))
        assert fd == pytest.approx(ref, rel=1e-8)


def test_admissibility_log_family_boundary_case():
    report = check_h_admissible(RenormFunction.power(1.0), 20.0, 400)
    assert report["passes"]
    assert abs(report["worst_margin"]) <= 1e-12


def test_admissibility_sqrt_family():
    assert check_h_admissible(RenormFunction.power(0.5), 20.0, 400)["passes"]


@pytest.mark.parametrize("l", [round(0.1 * k, 1) for k in range(1, 11)])
def test_admissibility_power_family(l):
    assert check_h_admissible(RenormFunction.power(l), 20.0, 400)["passes"]


def test_admissibility_power_above_one_fails():
    report = check_h_admissible(RenormFunction.power(1.5), 20.0, 400)
    assert not report["passes"]
    assert report["worst_margin"] < 0


def test_admissibility_exponential_fails():
    h = RenormFunction.from_callables(
        h=lambda z: np.exp(-np.asarray(z, dtype=float)),
        dh=lambda z: -np.exp(-np.asarray(z, dtype=float)),
        d2h=lambda z: np.exp(-np.asarray(z, dtype=float)))
    report = check_h_admissible(h, 20.0, 400)
    assert not report["passes"]


def test_admissibility_truncated_log():
    h = RenormFunction.truncated_log(0.5, 5.0)
    assert check_h_admissible(h, 20.0, 401)["passes"]


def test_admissibility_needs_derivatives():
    h = RenormFunction.from_callables(lambda z: 1.0 / (1.0 + np.asarray(z)))
    with pytest.raises(CapabilityError):
        check_h_admissible(h, 2.0, 10)
