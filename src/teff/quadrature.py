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

The adaptive rule is scipy's QAGS, whose 21-node Kronrod panels are
predicted (``_quad``): W is evaluated once per panel, on an array, and the
rest of each integrand stays scalar float arithmetic in a fixed order, so
every value has the bits of a point-by-point evaluation.  The flank
geometry of the moments (roots, cuts and fitted decay rates), which does
not depend on d, is found once per slice and cut and kept on the slice.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import beta as beta_fn

from .errors import Divergent, NoClassicalRegion, NumericsError

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

# QUADPACK dqk21's Kronrod abscissae on [-1, 1], xgk(1) ... xgk(10); the
# eleventh is the centre
_XGK = (0.9956571630258081, 0.9739065285171717, 0.9301574913557082,
        0.8650633666889845, 0.7808177265864169, 0.6794095682990244,
        0.5627571346686047, 0.4333953941292472, 0.2943928627014602,
        0.14887433898163122)


def _panel_nodes(lo, hi):
    """The 21 abscissae dqk21 asks for on [lo, hi], in its order: the
    centre, then centr -/+ hlgth*xgk(j) for the Gauss nodes j = 2, 4, ...,
    10 and then for the Kronrod nodes j = 1, 3, ..., 9."""
    centr = 0.5 * (lo + hi)
    hlgth = 0.5 * (hi - lo)
    xs = [centr]
    for x in _XGK[1::2] + _XGK[::2]:
        absc = hlgth * x
        xs += (centr - absc, centr + absc)
    return xs


def _quad(f, a, b, plain=False):
    """QAGS integral on [a, b] of the batch integrand ``f``, which maps a
    list of abscissae to the list of integrand values.

    QAGS evaluates the panel [a, b] and then only bisects panels it has
    evaluated, asking for each panel's centre first.  So a request at the
    centre of a half of an evaluated panel evaluates that half's 21 nodes
    with one call of ``f``, and the next 20 requests are served from them;
    a request nothing predicted is evaluated alone, so no value depends on
    the prediction.

    QAGS reports its subdivision limit, ``_MAX_SUBDIVISIONS`` intervals,
    when it bisects for the last time; that bisection asks for panel
    2 * limit - 2, and the request raises ``NumericsError`` instead (the
    warning QAGS would print reaches no caller).

    QAGS accepts a first panel whose Kronrod error estimate meets epsrel,
    and on a ``plain`` interval (not cosine-mapped) that estimate can miss
    by orders of magnitude: on the left flank of V = b r^0.263594 one
    panel over [-12.7, 2.16] estimates 4.5e-11 and errs by 1.4e-7.  So a
    plain one-panel result is checked against the sum of its two halves,
    which is returned instead when the two differ by more than epsrel.
    """
    halves = {0.5 * (a + b): (a, b)}  # centre -> (lo, hi) of a panel QAGS may ask for
    # panels QAGS evaluates before its last bisection: the first, then two
    # for each of limit - 2 bisections
    before_last = 2 * _MAX_SUBDIVISIONS - 3
    ready = {}  # abscissa -> value on the panel being evaluated
    panels = []  # the panels evaluated, in order

    def one(x):
        val = ready.get(x)
        if val is not None:
            return val
        panel = halves.pop(x, None)
        if panel is None:
            return f([x])[0]
        if len(halves) >= before_last:  # each evaluated panel left one net entry
            raise NumericsError(f"the integral on [{a:.6g}, {b:.6g}] needs more than "
                                f"{_MAX_SUBDIVISIONS} subdivisions")
        lo, hi = panel
        panels.append(panel)
        nodes = _panel_nodes(lo, hi)
        ready.clear()
        ready.update(zip(nodes, f(nodes)))
        halves[0.5 * (lo + x)] = (lo, x)
        halves[0.5 * (x + hi)] = (x, hi)
        return ready[x]

    epsrel = 0.1 * _REL_TOL
    val, _ = quad(one, a, b, epsabs=0.0, epsrel=epsrel, limit=_MAX_SUBDIVISIONS)
    if plain and len(panels) == 1:
        mid = 0.5 * (a + b)
        split = _quad(f, a, mid) + _quad(f, mid, b)
        if abs(split - val) > epsrel * abs(split):
            return split
    return val


def _w_func(s):
    p, E = s.p, s.E
    return lambda rho: float(p.W(E, rho))


def _w_many(s):
    """W on the slice at a list of rho, as a list of floats (one array call)."""
    p, E = s.p, s.E
    return lambda rhos: p.W(E, np.array(rhos)).tolist()


def _cos_mapped(f, lo, hi):
    """The batch integrand ``f`` of rho on [lo, hi] as one of theta on
    [0, pi], with rho = mid + half cos(theta) and the factor half sin(theta)."""
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)

    def mapped(thetas):
        vals = f([mid + half * math.cos(th) for th in thetas])
        return [v * half * math.sin(th) for v, th in zip(vals, thetas)]

    return mapped


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


def _tail_fit(w, rho_cut, rho_m, edge):
    """(w_cut, alpha): W at a truncation point and the decay rate of W
    beyond it, fitted over the last decade of W.

    Assumes locally exponential behaviour in rho (exact for every in-scope
    family near the origin, and for power-like tails in r).  The walk to
    W = 10 w_cut heads for the maximum at ``rho_m``, and may stop at the
    range ``edge`` beyond it.
    """
    w_cut = w(rho_cut)
    f = lambda x: w(x) - 10.0 * w_cut
    sign = 1.0 if rho_cut < rho_m else -1.0
    for near, far, _ in _walk(rho_cut, sign, edge, "cannot fit a decay rate to the W tail"):
        if f(far) > 0:
            rho_dec = brentq(f, min(near, far), max(near, far), rtol=1e-12, maxiter=200)
            break
        if sign * (far - rho_m) > 0:
            raise Divergent("cannot fit a decay rate to the W tail: the truncation "
                            "point lies within a decade of the W maximum")
    return w_cut, math.log(10.0) / abs(rho_dec - rho_cut)


def _tail(fit, a2, d):
    """Tail integral of (W/A^2)^(d/2) beyond a truncation point fitted by
    ``_tail_fit``."""
    w_cut, alpha = fit
    return (w_cut / a2) ** (0.5 * d) * 2.0 / (d * alpha)


class _Flanks(NamedTuple):
    """The moments' geometry on one slice at one cut, the same for every d.

    Both flanks start at the maximum ``rho_m`` = ln r_m.  The left one is
    integrated from ``rho_a`` (``clamped`` when that is a tabulated range
    edge) and closed by the tail ``left``.  The right one ends at ``rho_b``:
    the wall, a zero of W (``right`` is None for both), or a cut or range
    edge closed by the tail ``right``.
    """

    rho_m: float
    rho_a: float
    clamped: bool
    left: tuple
    rho_b: float
    right: tuple | None


def _flanks(s, cut):
    """The ``_Flanks`` of slice s with tails closed below W = cut * A^2,
    found once per slice and cut."""
    fl = s._flanks.get(cut)
    if fl is None:
        fl = s._flanks[cut] = _find_flanks(s, cut)
    return fl


def _find_flanks(s, cut):
    w = _w_func(s)
    rho_m = math.log(s.r_m)
    cut_value = cut * (s.A * s.A)
    floor, ceil = _rho_edges(s.p)
    # a V that overflows to +inf walls the flank in: W = -inf is a zero of W
    with np.errstate(over="ignore"):
        rho_a, clamped = _root_left(w, rho_m, cut_value, rho_floor=floor)
        left = _tail_fit(w, rho_a, rho_m, ceil)
        if s.boundary_max:
            return _Flanks(rho_m, rho_a, clamped, left, math.log(s.r_t), None)
        kind, rho_b = _classify_right(w, rho_m, cut_value, rho_ceil=ceil)
        right = None if kind == "zero" else _tail_fit(w, rho_b, rho_m, floor)
    return _Flanks(rho_m, rho_a, clamped, left, rho_b, right)


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
    a2, power = s.A * s.A, 0.5 * d
    w = _w_many(s)
    g = lambda rhos: [(v / a2) ** power if v > 0.0 else 0.0 for v in w(rhos)]
    first, truncated = _reduced_moment_parts(s, d, g, _TAIL_CUT)
    if not truncated:
        return first
    second, _ = _reduced_moment_parts(s, d, g, _TAIL_CUT / 10.0)
    if abs(second - first) > 1e-6 * max(abs(first), abs(second)):
        raise Divergent(
            f"moment estimate does not stabilise under tail refinement "
            f"({first:.12g} vs {second:.12g})")
    return second


def _reduced_moment_parts(s, d, g, cut):
    """(value, had_truncated_tail) of the integral of the batch integrand
    g = (W/A^2)^(d/2), with tails closed below W = cut * A^2."""
    fl = _flanks(s, cut)
    a2 = s.A * s.A
    total = _quad(g, fl.rho_a, fl.rho_m, plain=True)
    total += _tail(fl.left, a2, d)
    if s.boundary_max:
        total += _quad(g, fl.rho_m, fl.rho_b, plain=True)
        return total, fl.clamped
    if fl.right is None:  # W falls to zero at rho_b
        total += _quad(_cos_mapped(g, fl.rho_m, fl.rho_b), 0.0, math.pi)
        return total, fl.clamped
    total += _quad(g, fl.rho_m, fl.rho_b, plain=True)
    total += _tail(fl.right, a2, d)
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
    rho1, rho2 = _turning_points(s, lam2, _w_func(s))
    w = _w_many(s)

    def root_excess(rhos):
        excess = [v - lam2 for v in w(rhos)]
        return [math.sqrt(v) if v > 0.0 else 0.0 for v in excess]

    return _quad(_cos_mapped(root_excess, rho1, rho2), 0.0, math.pi) / math.pi


def nonlinearity_residual(s, lam, phi):
    """q(E, lam) = I(E, 0) - I(E, lam) - phi*lam, the defect of the linear form."""
    return action_I(s, 0.0) - action_I(s, lam) - phi * lam
