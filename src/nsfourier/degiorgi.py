"""Level-set truncation machinery certifying a positive temperature
lower bound on computed trajectories.

A ladder of levels C_k = exp(-M (1 - 2^{-k})) descends from 1 to
exp(-M).  For each level, a three-term energy over the sub-level set
{theta + omega <= C_k} is measured; if the sequence decays to zero the
temperature never reaches exp(-M) - omega.  An abstract superlinear
recursion (iterated with equality as the worst case) supplies the
analytic decay mechanism and a bisection locates its convergence
threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .coefficients import eval_conductivity
from .errors import DegenerateInputError, SchemeError
from .grid import grad_values, integrate_values
from .state import Trajectory

LADDER_DECAY_TOL = 1e-6
LEMMA_CONV_TOL = 1e-12
# exponents of the diagnostic fit U_k ~ C 2^{k alpha} U_{k-1}^gamma
FIT_ALPHA = 2.0
FIT_GAMMA = 1.25


@dataclass
class DeGiorgiLadder:
    M: float
    omega: float = 0.0
    k_max: int = 8
    levels: np.ndarray = field(init=False)

    def __post_init__(self):
        # written so that NaN fails each guard
        if not 0 < self.M < math.inf:
            raise ValueError("M must be positive and finite")
        if not 0 <= self.omega < math.inf:
            raise ValueError("omega must be non-negative and finite")
        if self.k_max < 1:
            raise ValueError("k_max must be at least 1")
        k = np.arange(self.k_max + 1)
        self.levels = np.exp(-self.M * (1.0 - 0.5 ** k))


@dataclass
class Lemma62Params:
    C: float
    A: float
    beta1: float
    beta2: float
    K: float
    U0: float

    def __post_init__(self):
        # written so that NaN fails each guard
        if not 0 <= self.C < math.inf:
            raise ValueError("C must be non-negative and finite")
        if not 1 <= self.A < math.inf:
            raise ValueError("A must be at least 1 and finite")
        if not 1.0 < self.beta1 < self.beta2 < math.inf:
            raise ValueError("exponents must satisfy 1 < beta1 < beta2 < inf")
        if not 0 < self.K < math.inf:
            raise ValueError("K must be positive and finite")
        if not 0 <= self.U0 < math.inf:
            raise ValueError("U0 must be non-negative and finite")


def truncation_phi(theta, C_k: float, omega: float = 0.0):
    """[ln(C_k / (theta + omega))]_+; zero once theta + omega >= C_k."""
    if C_k <= 0:
        raise ValueError("C_k must be positive")
    if omega < 0:
        raise ValueError("omega must be non-negative")
    theta = np.asarray(theta, dtype=float)
    if np.any(theta < 0):
        raise ValueError("theta must be non-negative")
    shifted = theta + omega
    if np.any(shifted == 0.0):
        raise DegenerateInputError(
            "truncation is infinite where theta + omega = 0")
    out = np.maximum(np.log(C_k / shifted), 0.0)
    return out if out.ndim else float(out)


def rung_integrals(traj: Trajectory, ladder: DeGiorgiLadder) -> np.ndarray:
    """Spatial integrals of the three level-energy densities, shape
    (k_max + 1, n_states, 3): the (delta + rho) phi_k term, the dissipation
    term and the gradient term of every stored state at every rung.

    Each state's fields (velocity, |D(u)|^2, mu, kappa, |grad theta|^2) are
    built once for all rungs and dropped before the next state, so memory
    does not grow with the trajectory.
    """
    grid = traj.grid
    out = np.empty((ladder.k_max + 1, len(traj.states), 3))
    for j, s in enumerate(traj.states):
        shifted = s.theta.values + ladder.omega
        dsq = s.velocity(traj.basis).strain_sq()
        mu = s.viscosity(traj.laws).values
        tgx, tgy = grad_values(grid, s.theta.values)
        grad_sq = tgx ** 2 + tgy ** 2
        kap = np.asarray(eval_conductivity(traj.laws.conductivity, s.theta.values))
        for k, C_k in enumerate(ladder.levels):
            phi = truncation_phi(s.theta.values, C_k, ladder.omega)
            mask = shifted <= C_k
            out[k, j] = (
                integrate_values(grid, (traj.delta + s.rho.values) * phi),
                integrate_values(grid, mask * mu / shifted * dsq),
                integrate_values(grid, mask * kap / shifted ** 2 * grad_sq))
    return out


def level_energy(traj: Trajectory, k: int, ladder: DeGiorgiLadder, *,
                 integrals: np.ndarray) -> float:
    """Three-term level energy at ladder rung k:

        sup_t  int (delta + rho) phi_k
        + 2 (1 - delta) int_t int  mu(theta)/(theta+omega) 1_level |D(u)|^2
        + int_t int  kappa(theta)/(theta+omega)^2 1_level |grad theta|^2

    with the trajectory's delta and laws and trapezoid time quadrature
    from t = 0 to the final time.
    `integrals` is `rung_integrals(traj, ladder)`, shared by all rungs.
    """
    if not traj.states:
        raise ValueError("empty trajectory")
    if not 0 <= k <= ladder.k_max:
        raise ValueError(f"rung {k} outside the ladder 0..{ladder.k_max}")
    sup_series, diss_series, grad_series = integrals[k].T
    sup_term = max(0.0, float(np.max(sup_series)))

    times = traj.times
    if len(times) > 1:
        diss_int = float(np.trapezoid(diss_series, times))
        grad_int = float(np.trapezoid(grad_series, times))
    else:
        diss_int = grad_int = 0.0
    return sup_term + 2.0 * (1.0 - traj.delta) * diss_int + grad_int


def build_ladder(theta_floor: float, k_max: int = 8, omega: float = 0.0,
                 M: float | None = None) -> DeGiorgiLadder:
    """The ladder `ladder_run` measures; raises ValueError on bad input.

    The default M = 2 ln(1/theta_floor) + ln 4 puts exp(-M/2) =
    theta_floor/2 strictly below the initial floor; pass M to override.
    """
    if not 0 < theta_floor < math.inf:
        raise ValueError("theta_floor must be positive and finite")
    if M is None:
        M = 2.0 * float(np.log(1.0 / theta_floor)) + float(np.log(4.0))
    return DeGiorgiLadder(M=M, omega=omega, k_max=k_max)


def ladder_run(traj: Trajectory, theta_floor: float, k_max: int = 8,
               omega: float = 0.0, delta: float | None = None, laws=None,
               M: float | None = None) -> dict:
    """Measure the full ladder of `build_ladder(theta_floor, k_max, omega,
    M)` and certify the temperature lower bound.

    The level energies use the trajectory's delta and laws; a `delta` or
    `laws` that is given must equal them."""
    if delta is not None:
        traj.require_params(delta=delta)
    if laws is not None:
        traj.require_params(laws=laws)
    ladder = build_ladder(theta_floor, k_max, omega, M)
    integrals = rung_integrals(traj, ladder)
    U = [level_energy(traj, k, ladder, integrals=integrals)
         for k in range(k_max + 1)]
    nonincreasing = all(U[k + 1] <= U[k] * (1.0 + 1e-12) + 1e-300
                        for k in range(k_max))
    decay_ok = bool(nonincreasing
                    and U[-1] <= LADDER_DECAY_TOL * max(U[0], 1e-30))
    lower_bound = float(np.exp(-ladder.M) - omega)
    observed = traj.min_theta()
    if decay_ok and observed < lower_bound:
        raise SchemeError(
            f"certificate claims theta >= {lower_bound} but the trajectory "
            f"reaches {observed}")
    fit_C = _fit_recursion_constant(U)
    return {
        "M": ladder.M,
        "omega": omega,
        "k_max": k_max,
        "U_sequence": U,
        "decay_ok": decay_ok,
        "lower_bound": lower_bound,
        "observed_min_theta": observed,
        "fit_C": fit_C,
    }


def _fit_recursion_constant(U):
    """Least-squares fit of C in U_k ~ C 2^{k alpha} U_{k-1}^gamma over
    the rungs with positive energy; purely diagnostic."""
    samples = []
    for k in range(1, len(U)):
        if U[k] > 0 and U[k - 1] > 0:
            samples.append(U[k] / (2.0 ** (k * FIT_ALPHA) * U[k - 1] ** FIT_GAMMA))
    return float(np.mean(samples)) if samples else None


def certificate_text(cert: dict) -> str:
    """Structured text block for the diagnostics stream."""
    lines = [
        "[degiorgi-certificate]",
        f"M = {cert['M']!r}",
        f"omega = {cert['omega']!r}",
        f"k_max = {cert['k_max']}",
        "U_k = " + " ".join(repr(u) for u in cert["U_sequence"]),
        f"decay_ok = {str(cert['decay_ok']).lower()}",
        f"lower_bound = {cert['lower_bound']!r}",
        f"observed_min_theta = {cert['observed_min_theta']!r}",
    ]
    if cert.get("fit_C") is not None:
        lines.append(f"fit_C = {cert['fit_C']!r}")
    return "\n".join(lines) + "\n"


def lemma62_iterate(p: Lemma62Params, k_steps: int) -> dict:
    """Iterate U_k = C A^k / K (U_{k-1}^b1 + U_{k-1}^b2) with equality,
    the worst case the recursion inequality allows."""
    if k_steps < 1:
        raise ValueError("k_steps must be at least 1")
    seq = [p.U0]
    diverged = False
    for k in range(1, k_steps + 1):
        prev = seq[-1]
        try:
            with np.errstate(over="ignore"):
                nxt = p.C * p.A ** k / p.K * (prev ** p.beta1 + prev ** p.beta2)
        except OverflowError:
            nxt = float("inf")
        if not np.isfinite(nxt):
            diverged = True
            seq.append(float("inf"))
            break
        seq.append(float(nxt))
    converged = (not diverged) and seq[-1] < LEMMA_CONV_TOL
    return {"sequence": seq, "converged": converged, "diverged": diverged}


def lemma62_threshold(C: float, A: float, beta1: float, beta2: float,
                      U0: float, K_range=(1e-8, 1e8), k_steps: int = 200) -> float:
    """Bisect for the smallest K above which the recursion converges."""
    lo, hi = K_range
    if not (0 < lo < hi):
        raise ValueError("need 0 < K_range[0] < K_range[1]")

    def converges(K):
        return lemma62_iterate(
            Lemma62Params(C=C, A=A, beta1=beta1, beta2=beta2, K=K, U0=U0),
            k_steps)["converged"]

    if converges(lo):
        return lo
    if not converges(hi):
        raise ValueError("no convergence anywhere in the K range")
    for _ in range(200):
        mid = np.sqrt(lo * hi)
        if converges(mid):
            hi = mid
        else:
            lo = mid
        if hi / lo < 1.0 + 1e-12:
            break
    return float(hi)
