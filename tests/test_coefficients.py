import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import integrate as sint

from nsfourier.coefficients import (ConductivityLaw, RenormFunction,
                                    ViscosityLaw, check_h_admissible,
                                    eval_conductivity, eval_H, eval_K_h,
                                    eval_viscosity, kirchhoff_K,
                                    kirchhoff_K_inverse)
from nsfourier.errors import CapabilityError


@pytest.fixture
def canonical():
    return ConductivityLaw(kappa_lo=1.0, kappa_hi=1.0)


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
    law = ConductivityLaw(kappa_lo=1.0, kappa_hi=2.0)
    val = eval_conductivity(law, 1.0)
    assert 2.0 <= val <= 4.0


@given(st.floats(0.0, 100.0))
def test_conductivity_bounds_random(theta):
    law = ConductivityLaw(kappa_lo=0.5, kappa_hi=3.0)
    val = eval_conductivity(law, theta)
    assert 0.5 * (1 + theta ** 2) - 1e-9 <= val <= 3.0 * (1 + theta ** 2) + 1e-9


def test_tabulated_law_rejects_bound_violation():
    with pytest.raises(ValueError):
        ConductivityLaw(kappa_lo=1.0, kappa_hi=1.0, form="tabulated",
                        theta_samples=(0.0, 1.0, 2.0),
                        kappa_samples=(1.0, 1.0, 1.0))


def test_tabulated_law_evaluates():
    law = ConductivityLaw(kappa_lo=0.1, kappa_hi=10.0, form="tabulated",
                          theta_samples=(0.0, 1.0, 2.0),
                          kappa_samples=(1.0, 2.0, 3.0))
    assert eval_conductivity(law, 0.5) == pytest.approx(1.5)


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
    tabulated = ConductivityLaw(kappa_lo=0.1, kappa_hi=10.0, form="tabulated",
                                theta_samples=(0.0, 1.0, 3.0),
                                kappa_samples=(1.0, 2.5, 8.0))
    custom = RenormFunction.from_callables(lambda z: 1.0 / (1.0 + np.asarray(z)))
    with pytest.raises(CapabilityError):
        kirchhoff_K_inverse(tabulated, 1.0)
    with pytest.raises(CapabilityError):
        eval_H(custom, 1.0)
    with pytest.raises(CapabilityError):
        eval_K_h(custom, canonical, 1.0)
    with pytest.raises(CapabilityError):
        eval_K_h(RenormFunction.power(1.0), tabulated, 1.0)
    with pytest.raises(CapabilityError):
        eval_K_h(RenormFunction.truncated_log(0.5, 5.0), canonical, 1.0)


def test_kirchhoff_tabulated_matches_quadrature():
    law = ConductivityLaw(kappa_lo=0.1, kappa_hi=10.0, form="tabulated",
                          theta_samples=(0.0, 1.0, 3.0),
                          kappa_samples=(1.0, 2.5, 8.0))
    for theta in (0.4, 1.7, 3.0):
        ref, _ = sint.quad(lambda z: eval_conductivity(law, z), 0.0, theta)
        assert kirchhoff_K(law, theta) == pytest.approx(ref, rel=1e-10)


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


def test_H_log_form():
    h = RenormFunction.power(1.0)
    assert eval_H(h, 1.0) == pytest.approx(math.log(2.0), rel=1e-14)


def test_H_at_zero():
    for h in (RenormFunction.power(0.7), RenormFunction.truncated_log(0.5, 5.0)):
        assert eval_H(h, 0.0) == 0.0


def test_H_sqrt_form():
    h = RenormFunction.power(0.5)
    assert eval_H(h, 3.0) == pytest.approx(2.0, rel=1e-14)


def test_H_derivative_matches_h():
    h = RenormFunction.power(0.8)
    step = 1e-5
    for theta in (0.3, 1.2, 4.0):
        fd = (eval_H(h, theta + step) - eval_H(h, theta - step)) / (2 * step)
        assert fd == pytest.approx(float(h.h(theta)), rel=1e-8)


def test_K_h_closed_form(canonical):
    h = RenormFunction.power(1.0)
    expected = 0.5 - 1.0 + 2.0 * math.log(2.0)
    assert eval_K_h(h, canonical, 1.0) == pytest.approx(expected, rel=1e-13)


def test_K_h_at_zero(canonical):
    assert eval_K_h(RenormFunction.power(0.5), canonical, 0.0) == 0.0


@pytest.mark.parametrize("l", [1.0, 0.5, 0.3])
@pytest.mark.parametrize("theta", [0.5, 2.0, 5.0])
def test_K_h_closed_form_vs_quadrature(canonical, l, theta):
    h = RenormFunction.power(l)
    ref, _ = sint.quad(lambda z: (1.0 + z ** 2) * (1.0 + z) ** (-l),
                       0.0, theta, epsabs=1e-14, epsrel=1e-12)
    assert eval_K_h(h, canonical, theta) == pytest.approx(ref, rel=1e-10)


def test_K_h_derivative_matches_kappa_h(canonical):
    h = RenormFunction.power(0.5)
    step = 1e-5
    for theta in (0.5, 2.0):
        fd = (eval_K_h(h, canonical, theta + step)
              - eval_K_h(h, canonical, theta - step)) / (2 * step)
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
