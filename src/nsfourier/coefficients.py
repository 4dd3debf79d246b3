"""Constitutive laws and renormalization functions.

Conductivity kappa(theta) with quadratic growth bounds, viscosity
mu(theta) degenerate at absolute zero with a positive plateau, the
renormalization family h with its admissibility condition
h''(z) h(z) >= 2 (h'(z))^2, and the antiderivative transforms

    K(t)   = int_0^t kappa(z) dz,
    H(t)   = int_0^t h(z) dz,
    K_h(t) = int_0^t kappa(z) h(z) dz,

all in closed form; a law or h outside the families that have one
raises CapabilityError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CapabilityError

_ADMISSIBILITY_TOL = 1e-12


def _require_nonneg(theta, what="theta"):
    arr = np.asarray(theta, dtype=float)
    if np.any(arr < 0):
        raise ValueError(f"{what} must be non-negative")
    return arr


@dataclass(frozen=True)
class ConductivityLaw:
    """Heat conductivity with kappa_lo (1+t^2) <= kappa(t) <= kappa_hi (1+t^2).

    The canonical form saturates the lower bound, which keeps K invertible
    in closed form.  Tabulated laws are piecewise linear in theta.
    """

    kappa_lo: float
    kappa_hi: float
    form: str = "canonical"
    theta_samples: tuple = field(default=(), repr=False)
    kappa_samples: tuple = field(default=(), repr=False)

    def __post_init__(self):
        if self.kappa_lo <= 0 or self.kappa_hi <= 0:
            raise ValueError("conductivity bounds must be positive")
        if self.kappa_lo > self.kappa_hi:
            raise ValueError("kappa_lo must not exceed kappa_hi")
        if self.form not in ("canonical", "tabulated"):
            raise ValueError(f"unknown conductivity form {self.form!r}")
        if self.form == "tabulated":
            ts = np.asarray(self.theta_samples, dtype=float)
            ks = np.asarray(self.kappa_samples, dtype=float)
            if ts.size < 2 or ts.size != ks.size:
                raise ValueError("tabulated law needs matching theta/kappa samples")
            if ts[0] != 0.0 or np.any(np.diff(ts) <= 0):
                raise ValueError("theta samples must start at 0 and increase")
            lo = self.kappa_lo * (1.0 + ts ** 2)
            hi = self.kappa_hi * (1.0 + ts ** 2)
            if np.any(ks < lo - 1e-12) or np.any(ks > hi + 1e-12):
                raise ValueError("tabulated kappa violates the growth bounds")

    def _table(self):
        return (np.asarray(self.theta_samples, dtype=float),
                np.asarray(self.kappa_samples, dtype=float))


def eval_conductivity(law: ConductivityLaw, theta):
    """kappa(theta); vectorized over arrays."""
    arr = _require_nonneg(theta)
    if law.form == "canonical":
        out = law.kappa_lo * (1.0 + arr ** 2)
    else:
        ts, ks = law._table()
        if np.any(arr > ts[-1]):
            raise ValueError("theta outside tabulated range")
        out = np.interp(arr, ts, ks)
    return out if np.ndim(theta) else float(out)


def kirchhoff_K(law: ConductivityLaw, theta):
    """K(theta) = int_0^theta kappa; strictly increasing, K(0) = 0."""
    arr = _require_nonneg(theta)
    if law.form == "canonical":
        out = law.kappa_lo * (arr + arr ** 3 / 3.0)
    else:
        # piecewise-linear kappa integrates exactly to piecewise quadratic
        ts, ks = law._table()
        if np.any(arr > ts[-1]):
            raise ValueError("theta outside tabulated range")
        seg = np.concatenate(([0.0], np.cumsum(0.5 * (ks[1:] + ks[:-1]) * np.diff(ts))))
        idx = np.clip(np.searchsorted(ts, arr, side="right") - 1, 0, ts.size - 2)
        t0 = ts[idx]
        k0 = ks[idx]
        slope = (ks[idx + 1] - ks[idx]) / (ts[idx + 1] - ts[idx])
        dt = arr - t0
        out = seg[idx] + k0 * dt + 0.5 * slope * dt ** 2
    return out if np.ndim(theta) else float(out)


def kirchhoff_K_inverse(law: ConductivityLaw, y):
    """theta with K(theta) = y; monotone in y.

    For the canonical law this is the one real root of
    theta^3 + 3 theta = 3 y / kappa_lo, namely
    2 sinh(asinh(3 y / (2 kappa_lo)) / 3).  Tabulated laws have no
    closed-form inverse and raise CapabilityError.
    """
    ys = _require_nonneg(y, "y")
    if law.form != "canonical":
        raise CapabilityError(f"no closed-form K inverse for the {law.form} law")
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
        if self.slope <= 0 or self.theta_bar <= 0:
            raise ValueError("slope and theta_bar must be positive")


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
    omega: float | None = None
    cutoff: float | None = None

    @classmethod
    def power(cls, l: float) -> "RenormFunction":
        """h(z) = (1+z)^(-l).  Admissible exactly for l in (0, 1]."""
        if not 0 < l < math.inf:
            raise ValueError("power exponent must be positive and finite")
        return cls(
            form="power",
            h=lambda z: (1.0 + z) ** (-l),
            dh=lambda z: -l * (1.0 + z) ** (-l - 1.0),
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
            omega=omega,
            cutoff=cutoff,
        )

    @classmethod
    def from_callables(cls, h, dh=None, d2h=None) -> "RenormFunction":
        """A custom h for `check_h_admissible`; H and K_h, and with them
        the renormalized inequality, exist only for the built-in families."""
        return cls(form="custom", h=h, dh=dh, d2h=d2h)


def eval_H(h: RenormFunction, theta):
    """H(theta) = int_0^theta h in closed form; CapabilityError for an h
    outside the built-in families."""
    arr = _require_nonneg(theta)
    if h.form == "power":
        l = h.exponent
        if l == 1.0:
            out = np.log1p(arr)
        else:
            out = ((1.0 + arr) ** (1.0 - l) - 1.0) / (1.0 - l)
    elif h.form == "truncated-log":
        top = np.minimum(arr, h.cutoff - h.omega)
        out = np.where(top > 0, np.log((np.maximum(top, 0.0) + h.omega) / h.omega), 0.0)
    else:
        raise CapabilityError(f"no closed-form H for the {h.form} renorm function")
    return out if np.ndim(theta) else float(out)


def eval_K_h(h: RenormFunction, law: ConductivityLaw, theta):
    """K_h(theta) = int_0^theta kappa(z) h(z) dz.

    Closed form for canonical kappa with the power family (substituting
    t = 1+z turns the integrand into kappa_lo (t^2 - 2t + 2) t^(-l));
    every other pair raises CapabilityError.
    """
    arr = _require_nonneg(theta)
    if law.form != "canonical" or h.form != "power":
        raise CapabilityError(
            f"no closed-form K_h for the {h.form} renorm function with the "
            f"{law.form} law")
    l = h.exponent
    t = 1.0 + arr

    def antider(tv):
        first = tv ** (3.0 - l) / (3.0 - l)
        second = -2.0 * tv ** (2.0 - l) / (2.0 - l)
        if l == 1.0:
            third = 2.0 * np.log(tv)
        else:
            third = 2.0 * tv ** (1.0 - l) / (1.0 - l)
        return first + second + third

    out = law.kappa_lo * (antider(t) - antider(1.0))
    return out if np.ndim(theta) else float(out)


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
