"""Non-linear transforms of a potential and the slope estimators built on them.

``chi_d`` compares the phase-space content of a well with a reference
well of the same amplitude; it is dimensionless, scale invariant, and
for the two exactly solvable reference wells it is independent of both
d and E (1 for the Coulomb well, 1/2 for the oscillator).  The slope
``phi`` weighting the angular quantum number in the effective quantum
number T = nu + phi*lambda comes in four flavours (additive,
multiplicative, asymptotic, Mellin-type); their mutual closeness is the
quality diagnostic of the whole method.  All but ``chi_profile`` take
one energy slice ``s`` (``potentials.analyze_slice``); ``chi_profile``
takes p and E and the slice that p holds at E (``p.slice_at``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy.special import betaln

from .errors import NumericsError
from .potentials import ScreenedCoulomb
from .quadrature import _w_func, reduced_moment

__all__ = [
    "chi_d",
    "chi_infinity",
    "chi_infinity_forms",
    "phi_additive",
    "phi_multiplicative",
    "chi_power_law_closed",
    "b_coefficients",
    "adiabatic_correction",
    "AdiabaticCorrection",
    "ChiProfile",
    "chi_profile",
    "screened_deep_energy",
]


def _beta(a, b):
    return math.exp(betaln(a, b))


def chi_d(s, d):
    """Relative phase-space transform chi_d = M_d / (A^d B(d/2, 1/2)).

    Accepts non-integer d >= 1.  For integer d >= 2 the equivalent
    state-count form d! N_d / (2 A^d) reduces to the same expression
    through a beta-function identity.
    """
    return reduced_moment(s, d) / _beta(0.5 * d, 0.5)


def _second_derivative_at_max(s, h=1e-3):
    """W''(rho_m) by a five-point stencil, Richardson extrapolated once."""
    w, rho_m = _w_func(s), math.log(s.r_m)

    def stencil(step):
        return (-w(rho_m - 2 * step) + 16 * w(rho_m - step) - 30 * w(rho_m)
                + 16 * w(rho_m + step) - w(rho_m + 2 * step)) / (12 * step * step)

    d_h = stencil(h)
    d_h2 = stencil(0.5 * h)
    return (16.0 * d_h2 - d_h) / 15.0


def chi_infinity_forms(s):
    """(curvature form, convexity form) of the d -> infinity limit of chi_d.

    The curvature form is A sqrt(2/|W''|) at the maximum; stationarity
    makes it equal to 1/sqrt(kappa(r_m) + 2).  Hard walls have a boundary
    maximum, so both entries fall back to a numerical d -> infinity limit.
    """
    if s.boundary_max:
        limit = 2.0 * chi_d(s, 256.0) - chi_d(s, 64.0)  # one Richardson step in 1/sqrt(d)
        return limit, limit
    w2 = _second_derivative_at_max(s)
    if w2 >= 0:
        raise NumericsError("W is not concave at its reported maximum")
    curvature = s.A * math.sqrt(2.0 / abs(w2))
    convexity = 1.0 / math.sqrt(s.kappa_at_rm + 2.0)
    return curvature, convexity


def chi_infinity(s):
    """Large-d limit of chi_d, by the curvature of W at its maximum.

    Cross-checked against the convexity-index form; the two must agree to
    1e-6 relative for analytic families (1e-3 for tabulated data, whose
    second derivatives come from finite differences).
    """
    curvature, convexity = chi_infinity_forms(s)
    if s.boundary_max:
        return curvature
    tol = 1e-3 if s.p.interpolated else 1e-6
    if abs(curvature - convexity) > tol * abs(convexity):
        raise NumericsError(
            f"curvature ({curvature:.10g}) and convexity ({convexity:.10g}) forms "
            f"of chi_infinity disagree beyond {tol:g}")
    return curvature


# the slope formulas on chi values, shared by the estimators and chi_profile

def _additive(c1, cd, d):
    return c1 + (c1 - cd) / (d - 1.0)


def _multiplicative(c1, cd, d):
    return (c1**d / cd) ** (1.0 / (d - 1.0))


def phi_additive(s, d):
    """Basic slope estimator phi = chi_1 + (chi_1 - chi_d)/(d - 1)."""
    if not d > 1:
        raise ValueError("phi_additive requires d > 1")
    return _additive(chi_d(s, 1.0), chi_d(s, d), d)


def phi_multiplicative(s, d):
    """Multiplicative slope estimator (chi_1^d / chi_d)^(1/(d-1))."""
    if not d > 1:
        raise ValueError("phi_multiplicative requires d > 1")
    return _multiplicative(chi_d(s, 1.0), chi_d(s, d), d)


def chi_power_law_closed(mu, d):
    """Closed beta-function form of chi_d for V = b r^mu (independent of E).

    Valid for mu > -2; the mu -> 0 limit is taken as the average of the
    two branches at mu = +-1e-6, and mu = inf returns the hard-wall value
    1 / (d B(d/2, 1/2)).
    """
    if d < 1:
        raise ValueError("chi_power_law_closed requires d >= 1")
    if math.isinf(mu):
        return 1.0 / (d * _beta(0.5 * d, 0.5))
    if not mu > -2.0:
        raise ValueError("mu must be > -2")
    if abs(mu) < 1e-9:
        return 0.5 * (chi_power_law_closed(1e-6, d) + chi_power_law_closed(-1e-6, d))
    if mu > 0:
        log_chi = ((2.0 + mu) / 2.0 * (d / mu) * math.log((2.0 + mu) / 2.0)
                   + 0.5 * d * math.log(2.0)
                   - (0.5 * d + 1.0) * math.log(mu)
                   + betaln(d / mu, 0.5 * d + 1.0)
                   - betaln(0.5 * d, 0.5))
    else:
        m = abs(mu)
        log_chi = ((2.0 - m) / 2.0 * (d / m) * math.log(2.0 / (2.0 - m))
                   + 0.5 * d * math.log(2.0)
                   - (0.5 * d + 1.0) * math.log(m)
                   + betaln(d * (2.0 - m) / (2.0 * m), 0.5 * d + 1.0)
                   - betaln(0.5 * d, 0.5))
    return math.exp(log_chi)


def b_coefficients(mu):
    """(b1, b3) of the large-d expansion chi_d = chi_inf (1 + b1/d + b3/d^3 + ...)."""
    if not mu > -2.0:
        raise ValueError("mu must be > -2")
    b1 = (mu + 4.0) ** 2 / (12.0 * (mu + 2.0)) - 0.75
    b3 = (7.0 + 8.0 * mu**3 / (mu + 2.0) ** 2) / 360.0
    return b1, b3


@dataclass(frozen=True)
class AdiabaticCorrection:
    """Leading correction to the power-law surrogate when kappa drifts with r."""

    b1_add: float
    phi_add: float
    mu_m: float


def adiabatic_correction(s):
    """Correction from the radial drift of kappa, evaluated at the W maximum.

    Identically zero for power laws (kappa is constant there).
    """
    if s.boundary_max:
        raise NumericsError("adiabatic correction undefined for a boundary maximum")
    p, r_m, mu_m = s.p, s.r_m, s.kappa_at_rm
    if p.scale_free:
        r_kprime = 0.0
    else:
        h = 1e-5
        r_kprime = (float(p.kappa(r_m * (1.0 + h))) - float(p.kappa(r_m * (1.0 - h)))) / (2.0 * h)
    b1_add = (16.0 + mu_m) / (24.0 * (mu_m + 2.0)) * r_kprime
    phi_add = 4.0 * b1_add / (3.0 * math.sqrt(mu_m + 2.0))
    return AdiabaticCorrection(b1_add=b1_add, phi_add=phi_add, mu_m=mu_m)


@dataclass(frozen=True)
class ChiProfile:
    """Every transform output at one (potential, energy) point.

    Per-dimension maps are keyed by d.  ``R`` must not fall below one
    (the multiplicative slope bounds the additive one from above).
    """

    E: float
    A: float
    chi1: float
    chi_inf: float
    chi: dict
    phi_additive: dict
    phi_mult: dict
    phi_as: dict
    chi_Das: dict
    ratio_R: dict
    s: dict
    w: dict
    b1_add: float | None
    phi_adiabatic: float | None
    mu_m: float | None

    def __post_init__(self):
        for d, value in self.chi.items():
            if not value > 0:
                raise NumericsError(f"chi must be positive, got {value} at d={d}")
        for d, value in self.ratio_R.items():
            if value < 1.0 - 1e-9:
                raise NumericsError(f"multiplicative/additive ratio {value} < 1 at d={d}")


def chi_profile(p, E, ds=(2, 3)):
    """Build the full transform profile at one energy for the requested d's,
    on the slice p holds at E (analysed and kept on p if it is new)."""
    s = p.slice_at(E)
    c1 = chi_d(s, 1.0)
    c_inf = chi_infinity(s)
    chis, phis, phims, phias, chidas, ratios, ss, ws = {}, {}, {}, {}, {}, {}, {}, {}
    for d in ds:
        cd = chi_d(s, d)
        phi = _additive(c1, cd, d)
        phi_m = _multiplicative(c1, cd, d)
        phi_as = c1 + (c1 - c_inf) / d
        big_d = d / (d + 1.0)
        chi_das = c_inf + (c1 - c_inf) / big_d
        chis[d] = cd
        phis[d] = phi
        phims[d] = phi_m
        phias[d] = phi_as
        chidas[d] = chi_das
        ratios[d] = phi_m / phi
        ss[d] = phi_as / phi
        ws[d] = chi_das / phi
    if s.boundary_max:
        b1_add = phi_ad = mu_m = None
    else:
        corr = adiabatic_correction(s)
        b1_add, phi_ad, mu_m = corr.b1_add, corr.phi_add, corr.mu_m
    return ChiProfile(E=E, A=s.A, chi1=c1, chi_inf=c_inf, chi=chis,
                      phi_additive=phis, phi_mult=phims, phi_as=phias,
                      chi_Das=chidas, ratio_R=ratios, s=ss, w=ws,
                      b1_add=b1_add, phi_adiabatic=phi_ad, mu_m=mu_m)


_DEEP_VARIATION = 1e-4


def screened_deep_energy(p):
    """Energy deep enough that the screening varies by less than
    ``_DEEP_VARIATION`` inside the classical region, making the well
    operationally Coulomb-like."""
    if not isinstance(p, ScreenedCoulomb):
        raise ValueError("deep-energy helper applies to screened wells only")
    from scipy.optimize import brentq

    g = p.screening.g
    target = lambda r: (1.0 - float(g(r))) - _DEEP_VARIATION
    r_hi = 1e-12
    while target(r_hi) < 0:
        r_hi *= 4.0
        if r_hi > 1e3:
            raise NumericsError("screening never varies by the requested amount")
    r_star = brentq(target, r_hi / 4.0, r_hi, rtol=1e-12, maxiter=200)
    return float(p.V(r_star))
