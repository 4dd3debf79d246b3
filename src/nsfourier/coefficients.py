"""Constitutive laws and renormalization functions.

Conductivity kappa(theta) = kappa_lo (1 + theta^2), the one law the
solver uses (it meets the paper's lower growth bound with equality),
viscosity mu(theta) degenerate at absolute zero with a positive plateau,
the renormalization family h with its admissibility condition
h''(z) h(z) >= 2 (h'(z))^2, and the antiderivative transforms

    K(t)   = int_0^t kappa(z) dz,
    K_h(t) = int_0^t kappa(z) h(z) dz,

with K^-1 and H(t) = int_0^t h(z) dz, all in closed form.  H and K_h
exist for the power family only: `eval_renorm` raises CapabilityError
for any other h, and `check_h_admissible` raises it for an h without
derivative data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CapabilityError

_ADMISSIBILITY_TOL = 1e-12


def _require_nonneg(theta, what="theta"):
    arr = np.asarray(theta, dtype=float)
    # a NaN makes min() NaN and passes, as it passes np.any(arr < 0)
    if arr.size and arr.min() < 0:
        raise ValueError(f"{what} must be non-negative")
    return arr


@dataclass(frozen=True)
class ConductivityLaw:
    """Heat conductivity kappa(t) = kappa_lo (1 + t^2).

    The paper allows any kappa between kappa_lo (1+t^2) and a multiple of
    it; this law saturates the lower bound, which keeps K invertible in
    closed form.
    """

    kappa_lo: float

    def __post_init__(self):
        if not 0 < self.kappa_lo < math.inf:
            raise ValueError("kappa_lo must be positive and finite")


def eval_conductivity(law: ConductivityLaw, theta):
    """kappa(theta); vectorized over arrays."""
    arr = _require_nonneg(theta)
    out = law.kappa_lo * (1.0 + arr ** 2)
    return out if np.ndim(theta) else float(out)


def kirchhoff_K(law: ConductivityLaw, theta):
    """K(theta) = int_0^theta kappa; strictly increasing, K(0) = 0."""
    arr = _require_nonneg(theta)
    out = law.kappa_lo * (arr + arr ** 3 / 3.0)
    return out if np.ndim(theta) else float(out)


def kirchhoff_K_inverse(law: ConductivityLaw, y):
    """theta with K(theta) = y; monotone in y.

    The one real root of theta^3 + 3 theta = 3 y / kappa_lo, namely
    2 sinh(asinh(3 y / (2 kappa_lo)) / 3).
    """
    ys = _require_nonneg(y, "y")
    out = 2.0 * np.sinh(np.arcsinh(1.5 * ys / law.kappa_lo) / 3.0)
    return out if np.ndim(y) else float(out)


@dataclass(frozen=True)
class ViscosityLaw:
    """Lipschitz viscosity, degenerate at theta = 0, positive plateau.

    Canonical law: mu(theta) = min(slope * theta, slope * theta_bar),
    the plateau reached at theta_bar.
    """

    slope: float
    theta_bar: float

    def __post_init__(self):
        if not (0 < self.slope < math.inf and 0 < self.theta_bar < math.inf):
            raise ValueError("slope and theta_bar must be positive and finite")


def eval_viscosity(law: ViscosityLaw, theta):
    """mu(theta); vanishes at theta = 0, plateau for theta >= theta_bar."""
    arr = _require_nonneg(theta)
    out = np.minimum(law.slope * arr, law.slope * law.theta_bar)
    return out if np.ndim(theta) else float(out)


@dataclass(frozen=True)
class RenormFunction:
    """Non-increasing renormalization function h with optional derivatives."""

    form: str
    h: callable = field(repr=False)
    dh: callable | None = field(default=None, repr=False)
    d2h: callable | None = field(default=None, repr=False)
    exponent: float | None = None

    @classmethod
    def power(cls, l: float) -> "RenormFunction":
        """h(z) = (1+z)^(-l).  Admissible exactly for l in (0, 1]."""
        if not 0 < l < math.inf:
            raise ValueError("power exponent must be positive and finite")
        return cls(
            form="power",
            h=lambda z: _power_values(l, z).h,
            dh=lambda z: _power_values(l, z).dh,
            d2h=lambda z: l * (l + 1.0) * (1.0 + z) ** (-l - 2.0),
            exponent=l,
        )

    @classmethod
    def truncated_log(cls, omega: float, cutoff: float) -> "RenormFunction":
        """h(z) = 1/(z+omega) on {z+omega <= cutoff}, zero beyond."""
        if not 0 < omega < cutoff < math.inf:
            raise ValueError("need 0 < omega < cutoff < inf")

        def ind(z):
            return np.asarray(z) + omega <= cutoff

        return cls(
            form="truncated-log",
            h=lambda z: np.where(ind(z), 1.0 / (np.asarray(z, dtype=float) + omega), 0.0),
            dh=lambda z: np.where(ind(z), -1.0 / (np.asarray(z, dtype=float) + omega) ** 2, 0.0),
            d2h=lambda z: np.where(ind(z), 2.0 / (np.asarray(z, dtype=float) + omega) ** 3, 0.0),
        )

    @classmethod
    def from_callables(cls, h, dh=None, d2h=None) -> "RenormFunction":
        """A custom h for `check_h_admissible`; H and K_h, and with them
        the renormalized inequality, exist only for the power family."""
        return cls(form="custom", h=h, dh=dh, d2h=d2h)


@dataclass(frozen=True)
class RenormValues:
    """h, h', H and K_h of a power-family h on one temperature field; K_h
    is None where no conductivity law was given."""

    h: np.ndarray
    dh: np.ndarray
    H: np.ndarray
    K_h: np.ndarray | None


def _power_integral(j: int, l: float, arr, tjp):
    """int_0^theta (1+z)^(j-1-l) dz = (t^(j-l) - 1)/(j-l) with t = 1 + theta,
    given tjp = t^j p = t^(j-l); log1p(theta) where j = l."""
    if j == l:
        return np.log1p(arr)
    return (tjp - 1.0) / (j - l)


def _power_values(l: float, arr, kappa_lo: float | None = None) -> RenormValues:
    """The power family h = (1+theta)^(-l), formed from the one power
    p = t^(-l), t = 1 + theta: h = p, h' = -l p/t, H = int_0^theta h, and,
    given the conductivity law's kappa_lo, K_h = kappa_lo (I_3 - 2 I_2 + 2 H)
    with I_j = int_0^theta (1+z)^(j-1-l) dz (the substitution t = 1+z
    turns kappa h into kappa_lo (t^2 - 2t + 2) t^(-l))."""
    t = 1.0 + arr
    p = t ** (-l)
    tp = t * p
    H = _power_integral(1, l, arr, tp)
    K_h = None
    if kappa_lo is not None:
        t2p = t * tp
        K_h = kappa_lo * (_power_integral(3, l, arr, t * t2p)
                          - 2.0 * _power_integral(2, l, arr, t2p) + 2.0 * H)
    return RenormValues(h=p, dh=-l * p / t, H=H, K_h=K_h)


def eval_renorm(h: RenormFunction, law: ConductivityLaw, theta) -> RenormValues:
    """h, h', H and K_h on the array theta in one evaluation;
    CapabilityError for an h outside the power family."""
    arr = _require_nonneg(theta)
    if h.form != "power":
        raise CapabilityError(f"no closed-form H or K_h for the {h.form} renorm function")
    return _power_values(h.exponent, arr, law.kappa_lo)


def check_h_admissible(h: RenormFunction, z_max: float, n_samples: int) -> dict:
    """Check 0 < h(0) < infty, decay, monotonicity, and the pointwise
    condition h'' h >= 2 (h')^2 on an equispaced sample grid."""
    if not 0 < z_max < math.inf:
        raise ValueError("need 0 < z_max < inf")
    if n_samples < 2:
        raise ValueError("need n_samples >= 2")
    if h.dh is None or h.d2h is None:
        raise CapabilityError(f"{h.form} renorm function lacks derivative data")
    z = np.linspace(0.0, z_max, n_samples)
    hv = np.asarray(h.h(z), dtype=float)
    margin = np.asarray(h.d2h(z), dtype=float) * hv - 2.0 * np.asarray(h.dh(z), dtype=float) ** 2
    i = int(np.argmin(margin))
    h0 = float(np.asarray(h.h(0.0), dtype=float))
    conditions = (
        0.0 < h0 < math.inf
        and float(hv[-1]) < h0
        and np.all(np.diff(hv) <= _ADMISSIBILITY_TOL)
        and margin[i] >= -_ADMISSIBILITY_TOL
    )
    return {"passes": bool(conditions),
            "worst_margin": float(margin[i]),
            "worst_z": float(z[i])}
