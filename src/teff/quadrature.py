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
Every integral runs at the fixed relative accuracy ``_REL_TOL`` on one
energy slice ``s`` (``potentials.analyze_slice``), which carries p and E.
"""

from __future__ import annotations

import math

from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import beta as beta_fn

from .errors import Divergent, NoClassicalRegion

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


def _w_func(s):
    p, E = s.p, s.E
    return lambda rho: float(p.W(E, rho))


def _rho_edges(p):
    """(floor, ceil): ln of the ends of p's domain, None where it is open."""
    r_lo, r_hi = p.domain()
    return (math.log(r_lo) if r_lo > 0.0 else None,
            math.log(r_hi) if math.isfinite(r_hi) else None)


def _walk(start, sign, edge, what):
    """The march along one flank of W: (near, far, at_edge) brackets from
    ``start`` in the direction ``sign``, the first 0.5 wide and each next
    twice the last, up to 64.

    A step reaching ``edge`` (a tabulated range end; None when open) ends at
    it with at_edge=True, and is the last; ``Divergent(what)`` is raised
    once the walk has gone ``_MARCH_LIMIT`` from ``start``.
    """
    step = 0.5
    near = start
    while True:
        far = near + sign * step
        if edge is not None and (far >= edge if sign > 0 else far <= edge):
            yield near, edge, True
            return
        yield near, far, False
        near = far
        step = min(2.0 * step, 64.0)
        if abs(near - start) > _MARCH_LIMIT:
            raise Divergent(what)


def _root_left(w, rho_m, target, rho_floor=None):
    """Root of W = target on the rising left flank (W -> 0 as rho -> -inf).

    Returns (rho_root, clamped); when ``rho_floor`` truncates the search
    (tabulated range edge) the floor itself is returned with clamped=True.
    """
    f = lambda x: w(x) - target
    for hi, lo, at_edge in _walk(rho_m, -1.0, rho_floor, "left flank of W fails to decay"):
        f_lo = f(lo)
        if at_edge and f_lo > 0:
            return lo, True
        if at_edge or f_lo < 0:
            return brentq(f, lo, hi, rtol=1e-13, maxiter=200), False


def _classify_right(w, rho_m, cut_value, rho_ceil=None):
    """Walk the falling right flank of W.

    Returns ("zero", rho) at a sign change of W, ("cut", rho) where W
    first drops below ``cut_value`` while staying positive, or
    ("edge", rho_ceil) when a tabulated range ends first.
    """
    w_lo = math.inf
    for lo, hi, at_edge in _walk(rho_m, 1.0, rho_ceil,
                                 "right flank of W fails to decay below the truncation level"):
        w_hi = w(hi)
        if w_hi <= 0.0:
            return "zero", brentq(w, lo, hi, rtol=1e-13, maxiter=200)
        if w_hi <= cut_value:
            return "cut", brentq(lambda x: w(x) - cut_value, lo, hi, rtol=1e-13, maxiter=200)
        if at_edge:
            return "edge", hi
        if w_hi > w_lo and hi - rho_m > 4.0:
            raise Divergent("W grows on the right flank; moment integral diverges")
        w_lo = w_hi


def _fitted_tail(w, rho_cut, w_cut, a2, d, rho_m, edge):
    """Tail integral of (W/A^2)^(d/2) beyond a truncation point.

    The decay rate is fitted over the last decade of W, assuming locally
    exponential behaviour in rho (exact for every in-scope family near
    the origin, and for power-like tails in r).  The walk to W = 10 w_cut
    heads for the maximum at ``rho_m``, and may stop at the range ``edge``
    beyond it.
    """
    f = lambda x: w(x) - 10.0 * w_cut
    sign = 1.0 if rho_cut < rho_m else -1.0
    for near, far, _ in _walk(rho_cut, sign, edge, "cannot fit a decay rate to the W tail"):
        if f(far) > 0:
            rho_dec = brentq(f, min(near, far), max(near, far), rtol=1e-12, maxiter=200)
            break
        if sign * (far - rho_m) > 0:
            raise Divergent("cannot fit a decay rate to the W tail: the truncation "
                            "point lies within a decade of the W maximum")
    alpha = math.log(10.0) / abs(rho_dec - rho_cut)
    return (w_cut / a2) ** (0.5 * d) * 2.0 / (d * alpha)


def reduced_moment(s, d):
    """M_d / A^d: the moment of W normalised by its maximum.

    Computed once at ``_TAIL_CUT`` and once at ``_TAIL_CUT / 10`` whenever
    a truncated tail entered; failure of the two to agree raises
    ``Divergent``.  Each d is integrated once per slice: a slice passed in
    again returns the value stored on it.
    """
    if d < 1.0:
        raise ValueError("moment order d must be >= 1")
    if d not in s._moments:
        s._moments[d] = _reduced_moment_refined(s, d)
    return s._moments[d]


def _reduced_moment_refined(s, d):
    first, truncated = _reduced_moment_parts(s, d, _TAIL_CUT)
    if not truncated:
        return first
    second, _ = _reduced_moment_parts(s, d, _TAIL_CUT / 10.0)
    if abs(second - first) > 1e-6 * max(abs(first), abs(second)):
        raise Divergent(
            f"moment estimate does not stabilise under tail refinement "
            f"({first:.12g} vs {second:.12g})")
    return second


def _reduced_moment_parts(s, d, cut):
    """(value, had_truncated_tail) with tails closed below W = cut * A^2."""
    w = _w_func(s)
    a2 = s.A * s.A
    rho_m = math.log(s.r_m)
    cut_value = cut * a2

    floor, ceil = _rho_edges(s.p)

    def g(rho):
        val = w(rho)
        return (val / a2) ** (0.5 * d) if val > 0.0 else 0.0

    rho_a, clamped = _root_left(w, rho_m, cut_value, rho_floor=floor)
    total = _quad(g, rho_a, rho_m)
    total += _fitted_tail(w, rho_a, w(rho_a), a2, d, rho_m, ceil)

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
    total += _fitted_tail(w, rho_b, w(rho_b), a2, d, rho_m, floor)
    return total, True


def moment_M(s, d):
    """M_d(E) = integral of W^(d/2) over the W > 0 region (d may be real)."""
    return reduced_moment(s, d) * s.A**d


def bound_count_N(s, d):
    """Phase-space estimate of the number of bound states below E in d dimensions."""
    if d < 2:
        raise ValueError("bound-state estimate requires d >= 2")
    coeff = beta_fn(1.5, 0.5 * (d - 1.0)) / (math.pi * math.gamma(d - 1.0))
    return coeff * moment_M(s, d)


def _turning_points(s, lam2, w):
    """Roots of W = lam^2 around the maximum (right end may be the wall)."""
    rho_m = math.log(s.r_m)
    f = lambda x: w(x) - lam2
    floor, ceil = _rho_edges(s.p)
    rho1, _ = _root_left(w, rho_m, lam2, rho_floor=floor)
    if s.boundary_max:
        return rho1, math.log(s.r_t)
    for lo, hi, at_edge in _walk(rho_m, 1.0, ceil, "no outer root of W = lambda^2 within reach"):
        if f(hi) < 0:
            return rho1, brentq(f, lo, hi, rtol=1e-13, maxiter=200)
        if at_edge:
            return rho1, hi


def action_I(s, lam):
    """Radial action (1/pi) integral sqrt(W - lam^2) drho between turning points.

    ``lam = 0`` reduces to the d = 1 moment over pi, which handles the
    then semi-infinite domain.
    """
    if lam < 0:
        raise ValueError("lam must be >= 0")
    if lam == 0.0:
        return reduced_moment(s, 1.0) * s.A / math.pi
    lam2 = lam * lam
    a2 = s.A * s.A
    if lam2 >= a2:
        if lam2 <= a2 * (1.0 + 1e-12):
            return 0.0
        raise NoClassicalRegion(
            f"no classical region: lambda = {lam:g} exceeds the well amplitude A = {s.A:g}")
    w = _w_func(s)
    rho1, rho2 = _turning_points(s, lam2, w)
    half = 0.5 * (rho2 - rho1)
    mid = 0.5 * (rho2 + rho1)

    def integrand(theta):
        val = w(mid + half * math.cos(theta)) - lam2
        return math.sqrt(val) * half * math.sin(theta) if val > 0.0 else 0.0

    return _quad(integrand, 0.0, math.pi) / math.pi


def nonlinearity_residual(s, lam, phi):
    """q(E, lam) = I(E, 0) - I(E, lam) - phi*lam, the defect of the linear form."""
    return action_I(s, 0.0) - action_I(s, lam) - phi * lam
