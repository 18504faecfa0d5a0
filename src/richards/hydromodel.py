"""Brooks-Corey constitutive laws and the graph parametrizations.

The saturation/pressure relation is the Brooks-Corey family

    S(p) = (p / p_b)^(-beta)   for p < p_b,      S(p) = 1 otherwise,
    lam(s) = s^(3 + 2/beta),

with entry pressure p_b < 0 and exponent beta > 0.  Integrating
lam(S(p)) in pressure gives the Kirchhoff variable u with a closed-form
power law u = u_b * s^eta.  Two sets of constants for (eta, u_b) are
supported (see ``derive_params``); the quadrature oracle in this module picks
the internally consistent one, which is the default.

A parametrization tau -> (s(tau), u(tau)) of the graph follows s up to a
switch point tau_star (s = tau, u = u_b tau^eta) and is affine in u after
it (u' = 1, s = S~(u)).  The two kinds differ only in tau_star:

* kind "tau": tau_star = min((eta u_b)^(1/(1-eta)), 1), so that
  max(s'(tau), u'(tau)) = 1 with s(0) = 0.  Non-degenerate with
  alpha_low = alpha_high = 1.
* kind "u": tau_star = 0, which gives u(tau) = tau and s = S~(tau).
  Degenerate: s' blows up at the dry limit u -> 0+.

Both are extended below tau = 0 by s = 0, u(tau) = tau so that u' = 1
holds for transient negative Newton iterates.

``Parametrization.eval`` computes each branch (tau < 0 or NaN,
0 <= tau < tau_star, and tau >= tau_star, split at u = u_b into its
unsaturated part and its saturated one, where s = 1 and s' = 0 take no
power) only on the cells that lie on it, one index per branch, so a cell
costs the powers of its own branch alone.  A branch that holds every cell
is computed on the whole array: on the redistribution test's tau
formulation every cell lies on the middle one.  At the presets' beta
(1, 4, 16; p_b = -0.01) tau_star = tau_sat = 1 for kind "tau", so its
whole upper branch is saturated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

__all__ = [
    "BrooksCoreyModel",
    "DerivedParams",
    "Parametrization",
    "derive_params",
    "saturation_of_pressure",
    "mobility",
    "mobility_derivative",
    "sat_of_kirchhoff",
    "kirchhoff_quadrature_oracle",
    "kirchhoff_closed_form",
    "check_nondegeneracy",
    "select_eta_mode",
]

# Cap used when reporting the u-formulation's singular s' without
# producing non-finite arithmetic in assembly.
SPRIME_CAP = 1.0e16


@dataclass(frozen=True)
class BrooksCoreyModel:
    """Brooks-Corey parameters. p_b < 0 is the entry pressure."""

    beta: float
    p_b: float
    eta_mode: str = "derived"  # "derived" | "legacy"

    def __post_init__(self):
        for name in ("beta", "p_b"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.p_b < 0:
            raise ValueError(f"p_b must be strictly negative, got {self.p_b}")
        if not self.beta > 0:
            raise ValueError(f"beta must be strictly positive, got {self.beta}")
        if self.eta_mode not in ("derived", "legacy"):
            raise ValueError(f"unknown eta_mode {self.eta_mode!r}")


@dataclass(frozen=True)
class DerivedParams:
    """Constants derived from a Brooks-Corey model.

    eta      -- exponent of the Kirchhoff power law u = u_b * s^eta
    u_b      -- Kirchhoff value at saturation onset (p = p_b)
    tau_star -- branch-switch point of the tau-formulation (0 for the
                u-formulation, see ``Parametrization.params``)
    tau_sat  -- tau at which the parametrization reaches s = 1
    """

    eta: float
    u_b: float
    tau_star: float
    tau_sat: float


def derive_params(model: BrooksCoreyModel) -> DerivedParams:
    """Closed-form constants (eta, u_b, tau_star, tau_sat).

    "derived" mode uses eta = 3 + 1/beta, the exponent obtained by direct
    integration of lam(S(p)); "legacy" mode uses eta = beta + 3 + 1/beta.
    In both modes u_b = -p_b / (beta * eta); a ValueError is raised where
    it is not a positive finite number (it underflows to 0 at beta = 1e300
    and p_b = -1e-300).
    """
    beta = model.beta
    if model.eta_mode == "legacy":
        eta = beta + 3.0 + 1.0 / beta
    else:
        eta = 3.0 + 1.0 / beta
    u_b = -model.p_b / (beta * eta)
    if not 0.0 < u_b < math.inf:
        raise ValueError(f"beta = {beta!r} and p_b = {model.p_b!r} give the entry Kirchhoff "
                         f"value u_b = -p_b / (beta eta) = {u_b!r}; it must be positive and "
                         "finite")
    tau_star = min((eta * u_b) ** (1.0 / (1.0 - eta)), 1.0)
    tau_sat = tau_star + u_b * (1.0 - tau_star**eta)
    return DerivedParams(eta=eta, u_b=u_b, tau_star=tau_star, tau_sat=tau_sat)


def saturation_of_pressure(model: BrooksCoreyModel, p):
    """S(p): (p/p_b)^(-beta) below the entry pressure, 1 above."""
    p = np.asarray(p, dtype=float)
    dry = p < model.p_b
    out = np.where(dry, np.where(dry, p, model.p_b) / model.p_b, 1.0) ** np.where(
        dry, -model.beta, 0.0
    )
    return out if out.ndim else float(out)


def mobility(model: BrooksCoreyModel, s):
    """lam(s) = s^(3 + 2/beta), evaluated on s clamped to [0, 1]."""
    s = np.clip(np.asarray(s, dtype=float), 0.0, 1.0)
    out = s ** (3.0 + 2.0 / model.beta)
    return out if out.ndim else float(out)


def mobility_derivative(model: BrooksCoreyModel, s):
    """lam'(s) on the clamped range, 0 outside (0, 1)."""
    s = np.asarray(s, dtype=float)
    e = 3.0 + 2.0 / model.beta
    inside = (s > 0.0) & (s < 1.0)
    out = np.where(inside, e * np.where(inside, s, 1.0) ** (e - 1.0), 0.0)
    return out if out.ndim else float(out)


def sat_of_kirchhoff(model: BrooksCoreyModel, u, params: DerivedParams | None = None):
    """S~(u) = (u/u_b)^(1/eta) for 0 <= u < u_b, 1 above, 0 for u < 0."""
    if params is None:
        params = derive_params(model)
    u = np.asarray(u, dtype=float)
    r = np.clip(u / params.u_b, 0.0, None)
    out = np.minimum(r ** (1.0 / params.eta), 1.0)
    return out if out.ndim else float(out)


def _sat_of_kirchhoff_prime(params: DerivedParams, u):
    """d S~/du at u >= 0: +inf at u = 0, 0 from u_b on (right derivative at u_b)."""
    eta, u_b = params.eta, params.u_b
    inner = (u > 0.0) & (u < u_b)
    safe = np.where(inner, u, 1.0)
    return np.where(inner, (1.0 / (eta * u_b)) * (safe / u_b) ** (1.0 / eta - 1.0),
                    np.where(u == 0.0, np.inf, 0.0))


_ALL = slice(None)  # the index of every cell


def _cells(mask):
    """The cells where the 1-D mask holds: _ALL when it holds on every one,
    None when on none, else their index."""
    count = np.count_nonzero(mask)
    if count == mask.size:
        return _ALL
    return mask.nonzero()[0] if count else None


@dataclass(frozen=True)
class Parametrization:
    """A pair of monotone maps tau -> (s(tau), u(tau)) covering the graph of S.

    kind is "tau" (non-degenerate, max(s', u') = 1) or "u" (u(tau) = tau,
    the same graph with tau_star = 0).
    The dry-limit constants of the continuous framework are documented
    here but unused: p at the graph endpoint is -inf for Brooks-Corey and
    the Kirchhoff value there is 0 (the s(0) = 0 normalization is used
    throughout, so the graph endpoint sits at tau = 0).
    """

    kind: str
    model: BrooksCoreyModel

    def __post_init__(self):
        self.params  # rejects an unknown kind at construction

    @cached_property
    def params(self) -> DerivedParams:
        """The model's constants, with tau_star = 0 and tau_sat = u_b for kind "u"."""
        if self.kind not in ("tau", "u"):
            raise ValueError(f"unknown parametrization kind {self.kind!r}")
        p = derive_params(self.model)
        return p if self.kind == "tau" else replace(p, tau_star=0.0, tau_sat=p.u_b)

    # -- maps ---------------------------------------------------------------

    def eval(self, tau):
        """Return (s, u, s', u') arrays of tau's shape; right derivatives at branch points.

        Each branch is computed on its own cells only: tau < 0 or NaN
        (s = 0, u = tau, s' = 0, u' = 1; a NaN iterate stays NaN, so its
        residual is non-finite), 0 <= tau < tau_star (s = tau,
        u = u_b tau^eta) and tau >= tau_star (u affine in tau, s = S~(u)).
        On the last, the saturated cells, u >= u_b, take s = 1 and s' = 0
        with no power, the values S~ and its right derivative have there.
        A branch that holds every cell is computed on the whole array, with
        no gather and no scatter.
        """
        tau = np.asarray(tau, dtype=float)
        p = self.params
        eta, u_b, t_st = p.eta, p.u_b, p.tau_star
        t = tau.reshape(-1)
        s, u, sp, upr = np.zeros(t.size), t.copy(), np.zeros(t.size), np.ones(t.size)
        above = t >= t_st
        up = _cells(above)
        low = _cells((t >= 0.0) & ~above) if up is not _ALL else None
        # A scalar tau is computed on as the 0-d array itself, not as a
        # 1-element array: numpy takes a power of a 0-d quotient from the C
        # library's pow, which can differ by an ulp from its vectorized loop,
        # so a scalar gets the same bits as from whole-array code.
        if low is not None:
            t_low = t[low] if tau.ndim else tau
            s[low] = t_low
            u[low] = u_b * t_low**eta
            sp[low] = 1.0
            upr[low] = eta * u_b * t_low ** (eta - 1.0)
        if up is not None:
            u_up = (t[up] if tau.ndim else tau) - t_st + u_b * t_st**eta  # >= 0
            u[up] = u_up
            below = _cells((u_up < u_b).reshape(-1))  # the others are saturated
            if below is _ALL:
                s[up] = sat_of_kirchhoff(self.model, u_up, p)
                sp[up] = _sat_of_kirchhoff_prime(p, u_up)
            elif below is None:
                s[up] = 1.0  # and s' = 0
            else:
                s_up, sp_up = np.ones(u_up.size), np.zeros(u_up.size)
                u_below = u_up.take(below)
                s_up[below] = sat_of_kirchhoff(self.model, u_below, p)
                sp_up[below] = _sat_of_kirchhoff_prime(p, u_below)
                s[up], sp[up] = s_up, sp_up
        if tau.ndim == 1:
            return s, u, sp, upr
        return tuple(a.reshape(tau.shape) for a in (s, u, sp, upr))

    # -- inverses -----------------------------------------------------------

    def _tau_of_graph(self, s, u):
        """tau of the graph point (s, u): s below tau_star, affine in u above."""
        p = self.params
        out = np.where(s >= p.tau_star, u - p.u_b * p.tau_star**p.eta + p.tau_star, s)
        return out if out.ndim else float(out)

    def sat_inverse(self, s):
        """Smallest tau >= 0 with s(tau) = s."""
        s_arr = np.asarray(s, dtype=float)
        if np.any(s_arr < 0.0) or np.any(s_arr > 1.0):
            raise ValueError("saturation outside [0, 1]")
        p = self.params
        return self._tau_of_graph(s_arr, p.u_b * s_arr**p.eta)

    def tau_of_pressure(self, pressure):
        """tau with p(tau) = pressure; the saturated branch is affine in u."""
        return self._tau_of_graph(
            saturation_of_pressure(self.model, pressure),
            kirchhoff_closed_form(self.model, pressure),
        )

    # -- closed-form integrals used by the diagnostics ----------------------

    def s_antiderivative(self, tau):
        """int_0^tau s(a) da, exact per branch."""
        tau = np.asarray(tau, dtype=float)
        p = self.params
        eta, u_b, t_st, t_sat = p.eta, p.u_b, p.tau_star, p.tau_sat

        def g_int(u):
            # int (x/u_b)^(1/eta) dx from 0 to u, for 0 <= u <= u_b
            return (eta / (eta + 1.0)) * u_b * np.clip(u / u_b, 0.0, None) ** ((eta + 1.0) / eta)

        t = np.clip(tau, 0.0, None)
        low = np.minimum(t, t_st)
        out = 0.5 * low**2
        u_at = np.clip(t - t_st, 0.0, None) + u_b * t_st**eta
        mid = t > t_st
        out = out + np.where(mid, g_int(np.minimum(u_at, u_b)) - g_int(u_b * t_st**eta), 0.0)
        out = out + np.clip(t - t_sat, 0.0, None)
        return out if out.ndim else float(out)

    def xi(self, tau):
        """xi(tau) = int_0^tau sqrt(u'(a)) da, exact per branch."""
        tau = np.asarray(tau, dtype=float)
        p = self.params
        eta, u_b, t_st = p.eta, p.u_b, p.tau_star
        # lower branch: sqrt(u') = sqrt(eta u_b) a^((eta-1)/2)
        c = math.sqrt(eta * u_b) * 2.0 / (eta + 1.0)
        low = np.clip(tau, 0.0, t_st)
        out = c * low ** ((eta + 1.0) / 2.0)
        out = out + np.clip(tau - t_st, 0.0, None)  # upper branch: u' = 1
        out = out + np.minimum(tau, 0.0)  # extension: u' = 1
        return out if out.ndim else float(out)


# -- oracle ------------------------------------------------------------------


def kirchhoff_closed_form(model: BrooksCoreyModel, p):
    """Closed-form u(p) implied by the model's eta_mode constants."""
    dp = derive_params(model)
    p = np.asarray(p, dtype=float)
    sat = p >= model.p_b
    ratio = np.where(sat, 1.0, p / model.p_b)
    out = np.where(sat, dp.u_b + (p - model.p_b), dp.u_b * ratio ** (-model.beta * dp.eta))
    return out if out.ndim else float(out)


def kirchhoff_quadrature_oracle(model: BrooksCoreyModel, p: float) -> float:
    """u(p) = int_{-inf}^{p} lam(S(a)) da by adaptive quadrature.

    Independent of the closed forms; used to validate them and to select
    the internally consistent eta_mode.  Relative accuracy ~1e-12.
    """
    # imported here: scipy.integrate takes most of the package import time
    from scipy.integrate import quad

    lam_exp = 3.0 + 2.0 / model.beta
    p_b = model.p_b

    def integrand(a):
        return (a / p_b) ** (-model.beta * lam_exp)

    upper = min(p, p_b)
    val, err = quad(integrand, -np.inf, upper, epsabs=0.0, epsrel=1e-13, limit=400)
    if val != 0.0 and err > 1e-9 * abs(val):
        raise RuntimeError(f"quadrature did not converge: value {val}, error {err}")
    if p > p_b:
        val += p - p_b
    return val


def select_eta_mode(beta: float, p_b: float) -> str:
    """Return the eta_mode whose closed form matches the quadrature oracle on
    20 pressures from p_b to 100 p_b."""
    best_mode, best_dev = None, math.inf
    ps = p_b * np.logspace(0.0, 2.0, 20)
    for mode in ("derived", "legacy"):
        model = BrooksCoreyModel(beta=beta, p_b=p_b, eta_mode=mode)
        dev = 0.0
        for p in ps:
            ref = kirchhoff_quadrature_oracle(model, p)
            dev = max(dev, abs(kirchhoff_closed_form(model, p) - ref) / ref)
        if dev < best_dev:
            best_mode, best_dev = mode, dev
    return best_mode


def check_nondegeneracy(param: Parametrization, tau_grid) -> tuple[float, float]:
    """(alpha_low, alpha_high) estimates: min and max over the grid of max(s', u')."""
    tau_grid = np.asarray(tau_grid, dtype=float)
    _, _, sp, up = param.eval(tau_grid)
    m = np.maximum(sp, up)
    return float(np.min(m)), float(np.max(m))
