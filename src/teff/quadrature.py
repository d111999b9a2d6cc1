"""Integral functionals of the effective radial function W.

Three integrals drive everything downstream:

* the radial action  I(E, lam) = (1/pi) * integral sqrt(W - lam^2) drho
  between the roots of W = lam^2,
* the moments        M_d(E)    = integral W^(d/2) drho over W > 0,
* the bound-state estimates N_d built from M_d.

Turning-point integrals are mapped onto a cosine variable so the square
root vanishing at the endpoints becomes analytic before adaptive
Gauss-Kronrod quadrature is applied.  The W > 0 domain always extends to
rho -> -infinity (and to +infinity at the continuum threshold of decaying
tails); those ends are truncated where W falls below ``_TAIL_CUT * A^2``
and closed with an exponential tail fitted to the last decade of W.
Every integral runs at the fixed relative accuracy ``_REL_TOL``.
"""

from __future__ import annotations

import math

from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import beta as beta_fn

from .errors import Divergent, NoClassicalRegion
from .potentials import analyze_slice

__all__ = [
    "action_I",
    "moment_M",
    "reduced_moment",
    "bound_count_N",
    "nonlinearity_residual",
]


_REL_TOL = 1e-9  # relative accuracy of every W-integral
_TAIL_CUT = 1e-12  # W / A^2 below which a tail is closed analytically
_MARCH_LIMIT = 600.0  # furthest distance (in rho) we chase a decaying tail
_MAX_SUBDIVISIONS = 200


def _quad(f, a, b):
    val, _ = quad(f, a, b, epsabs=0.0, epsrel=0.1 * _REL_TOL,
                  limit=_MAX_SUBDIVISIONS)
    return val


def _w_func(p, E):
    return lambda rho: float(p.W(E, rho))


def _root_left(w, rho_m, target, rho_floor=None):
    """Root of W = target on the rising left flank (W -> 0 as rho -> -inf).

    Returns (rho_root, clamped); when ``rho_floor`` truncates the search
    (tabulated range edge) the floor itself is returned with clamped=True.
    """
    f = lambda x: w(x) - target
    step = 0.5
    hi = rho_m
    while True:
        lo = hi - step
        if rho_floor is not None and lo <= rho_floor:
            if f(rho_floor) > 0:
                return rho_floor, True
            return brentq(f, rho_floor, hi, rtol=1e-13, maxiter=200), False
        if f(lo) < 0:
            return brentq(f, lo, hi, rtol=1e-13, maxiter=200), False
        hi = lo
        step = min(2.0 * step, 64.0)
        if rho_m - hi > _MARCH_LIMIT:
            raise Divergent("left flank of W fails to decay")


def _classify_right(w, rho_m, cut_value, rho_ceil=None):
    """Walk the falling right flank of W.

    Returns ("zero", rho) at a sign change of W, ("cut", rho) where W
    first drops below ``cut_value`` while staying positive, or
    ("edge", rho_ceil) when a tabulated range ends first.
    """
    step = 0.5
    lo = rho_m
    w_lo = w(lo)
    while True:
        hi = lo + step
        if rho_ceil is not None and hi >= rho_ceil:
            w_edge = w(rho_ceil)
            if w_edge <= 0.0:
                return "zero", brentq(lambda x: w(x), lo, rho_ceil, rtol=1e-13, maxiter=200)
            if w_edge <= cut_value:
                return "cut", brentq(lambda x: w(x) - cut_value, lo, rho_ceil, rtol=1e-13, maxiter=200)
            return "edge", rho_ceil
        w_hi = w(hi)
        if w_hi <= 0.0:
            return "zero", brentq(lambda x: w(x), lo, hi, rtol=1e-13, maxiter=200)
        if w_hi <= cut_value:
            return "cut", brentq(lambda x: w(x) - cut_value, lo, hi, rtol=1e-13, maxiter=200)
        if w_hi > w_lo and hi - rho_m > 4.0:
            raise Divergent("W grows on the right flank; moment integral diverges")
        lo, w_lo = hi, w_hi
        step = min(2.0 * step, 64.0)
        if lo - rho_m > _MARCH_LIMIT:
            raise Divergent("right flank of W fails to decay below the truncation level")


def _fitted_tail(w, rho_cut, w_cut, a2, d, side):
    """Tail integral of (W/A^2)^(d/2) beyond a truncation point.

    The decay rate is fitted over the last decade of W, assuming locally
    exponential behaviour in rho (exact for every in-scope family near
    the origin, and for power-like tails in r).
    """
    f = lambda x: w(x) - 10.0 * w_cut
    step = 0.5
    x = rho_cut
    while True:
        x_next = x + step if side == "left" else x - step
        if f(x_next) > 0:
            lo, hi = (x, x_next) if side == "left" else (x_next, x)
            rho_dec = brentq(f, lo, hi, rtol=1e-12, maxiter=200)
            break
        x = x_next
        step = min(2.0 * step, 64.0)
        if abs(x - rho_cut) > _MARCH_LIMIT:
            raise Divergent("cannot fit a decay rate to the W tail")
    alpha = math.log(10.0) / abs(rho_dec - rho_cut)
    return (w_cut / a2) ** (0.5 * d) * 2.0 / (d * alpha)


def reduced_moment(p, E, d, _slice=None):
    """M_d / A^d: the moment of W normalised by its maximum.

    Computed once at ``_TAIL_CUT`` and once at ``_TAIL_CUT / 10`` whenever
    a truncated tail entered; failure of the two to agree raises
    ``Divergent``.  Each d is integrated once per slice: a slice passed in
    again returns the value stored on it.
    """
    if d < 1.0:
        raise ValueError("moment order d must be >= 1")
    s = _slice if _slice is not None else analyze_slice(p, E)
    if d not in s._moments:
        s._moments[d] = _reduced_moment_refined(p, E, d, s)
    return s._moments[d]


def _reduced_moment_refined(p, E, d, s):
    first, truncated = _reduced_moment_parts(p, E, d, s, _TAIL_CUT)
    if not truncated:
        return first
    second, _ = _reduced_moment_parts(p, E, d, s, _TAIL_CUT / 10.0)
    if abs(second - first) > 1e-6 * max(abs(first), abs(second)):
        raise Divergent(
            f"moment estimate does not stabilise under tail refinement "
            f"({first:.12g} vs {second:.12g})")
    return second


def _reduced_moment_parts(p, E, d, s, cut):
    """(value, had_truncated_tail) with tails closed below W = cut * A^2."""
    w = _w_func(p, E)
    a2 = s.A * s.A
    rho_m = math.log(s.r_m)
    cut_value = cut * a2

    r_lo, r_hi = p.domain()
    floor = math.log(r_lo) if r_lo > 0.0 else None
    ceil = math.log(r_hi) if math.isfinite(r_hi) else None

    def g(rho):
        val = w(rho)
        return (val / a2) ** (0.5 * d) if val > 0.0 else 0.0

    rho_a, clamped = _root_left(w, rho_m, cut_value, rho_floor=floor)
    total = _quad(g, rho_a, rho_m)
    total += _fitted_tail(w, rho_a, w(rho_a), a2, d, side="left")

    if s.boundary_max:
        total += _quad(g, rho_m, math.log(s.r_t))
        return total, clamped

    kind, rho_b = _classify_right(w, rho_m, cut_value, rho_ceil=ceil)
    if kind == "zero":
        half = 0.5 * (rho_b - rho_m)
        mid = 0.5 * (rho_b + rho_m)
        total += _quad(lambda th: g(mid + half * math.cos(th)) * half * math.sin(th),
                       0.0, math.pi)
        return total, clamped
    total += _quad(g, rho_m, rho_b)
    total += _fitted_tail(w, rho_b, w(rho_b), a2, d, side="right")
    return total, True


def moment_M(p, E, d, _slice=None):
    """M_d(E) = integral of W^(d/2) over the W > 0 region (d may be real)."""
    s = _slice if _slice is not None else analyze_slice(p, E)
    return reduced_moment(p, E, d, _slice=s) * s.A**d


def bound_count_N(p, E, d, _slice=None):
    """Phase-space estimate of the number of bound states below E in d dimensions."""
    if d < 2:
        raise ValueError("bound-state estimate requires d >= 2")
    coeff = beta_fn(1.5, 0.5 * (d - 1.0)) / (math.pi * math.gamma(d - 1.0))
    return coeff * moment_M(p, E, d, _slice=_slice)


def _turning_points(p, E, lam2, s, w):
    """Roots of W = lam^2 around the maximum (right end may be the wall)."""
    rho_m = math.log(s.r_m)
    f = lambda x: w(x) - lam2
    r_lo, r_hi = p.domain()
    rho1, _ = _root_left(w, rho_m, lam2,
                         rho_floor=math.log(r_lo) if r_lo > 0.0 else None)
    if s.boundary_max:
        return rho1, math.log(s.r_t)
    step = 0.5
    lo = rho_m
    ceil = math.log(r_hi) if math.isfinite(r_hi) else None
    while True:
        hi = lo + step
        if ceil is not None:
            hi = min(hi, ceil)
        if f(hi) < 0:
            return rho1, brentq(f, lo, hi, rtol=1e-13, maxiter=200)
        if ceil is not None and hi >= ceil:
            return rho1, ceil
        lo = hi
        step = min(2.0 * step, 64.0)
        if lo - rho_m > _MARCH_LIMIT:
            raise Divergent("no outer root of W = lambda^2 within reach")


def action_I(p, E, lam, _slice=None):
    """Radial action (1/pi) integral sqrt(W - lam^2) drho between turning points.

    ``lam = 0`` reduces to the d = 1 moment over pi, which handles the
    then semi-infinite domain.
    """
    if lam < 0:
        raise ValueError("lam must be >= 0")
    s = _slice if _slice is not None else analyze_slice(p, E)
    if lam == 0.0:
        return reduced_moment(p, E, 1.0, _slice=s) * s.A / math.pi
    lam2 = lam * lam
    a2 = s.A * s.A
    if lam2 >= a2:
        if lam2 <= a2 * (1.0 + 1e-12):
            return 0.0
        raise NoClassicalRegion(
            f"no classical region: lambda = {lam:g} exceeds the well amplitude A = {s.A:g}")
    w = _w_func(p, E)
    rho1, rho2 = _turning_points(p, E, lam2, s, w)
    half = 0.5 * (rho2 - rho1)
    mid = 0.5 * (rho2 + rho1)

    def integrand(theta):
        val = w(mid + half * math.cos(theta)) - lam2
        return math.sqrt(val) * half * math.sin(theta) if val > 0.0 else 0.0

    return _quad(integrand, 0.0, math.pi) / math.pi


def nonlinearity_residual(p, E, lam, phi, _slice=None):
    """q(E, lam) = I(E, 0) - I(E, lam) - phi*lam, the defect of the linear form."""
    s = _slice if _slice is not None else analyze_slice(p, E)
    n1 = action_I(p, E, 0.0, _slice=s)
    return n1 - action_I(p, E, lam, _slice=s) - phi * lam
