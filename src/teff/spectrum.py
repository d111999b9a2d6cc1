"""Approximate bound-state energies from the effective-quantum-number
quantization condition.

The condition reads A(E) chi_1(E) = T, whose left side is the d = 1
state count N_1(E), a strictly increasing function of E.  The slope phi
inside T = nu + phi lambda depends on E for screened and mixed wells, so
each level is one bracketed root of F(E) = N_1(E) - nu - phi(E) lambda,
with N_1 and phi taken from the same slice at every probe; below a
threshold that root is bracketed on a ladder of energies that every level
of the well shares.  For pure power laws and the hard wall phi is
E-independent, and at lambda = 0 it drops out, so there T is a constant.
The non-linear mode solves the Mellin form of T as the same kind of root.

Every probe takes its slice from the potential (``p.slice_at``), which
keeps it, about 1 KB a slice, for as long as p lives: the levels of one
enumeration, later single-level solves and a diagram drawn afterwards on
the same object share the energies they have in common.  A slice is a
deterministic function of (p, E), so no level depends on what p already
holds; a new ``parse_potential`` starts with no slices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy.optimize import brentq

import numpy as np

from .errors import LambdaTooSmall, NoBoundState, NoConvergence
from .ordering import QuantumLevel, _mellin_t, teff_nonlinear
from .potentials import PowerLaw
from .quadrature import action_I
from .transforms import chi_d, chi_infinity, phi_additive

__all__ = [
    "SpectrumEntry",
    "quantize_energy",
    "enumerate_bound_states",
    "ScalingReport",
    "power_law_scaling_check",
]


@dataclass(frozen=True)
class SpectrumEntry:
    """One solved level: the T actually used, the energy, and solve metadata."""

    n_r: int
    l: int
    d: int
    T: float
    E: float
    mode: str
    phi: float | None
    iterations: int
    residual: float


def _expand(f, x, factor, sign, what, origin=0.0, tries=200):
    """Scale the distance of x from ``origin`` by ``factor`` until
    sign * f(x) > 0; the geometric bracket search of every family."""
    for _ in range(tries):
        if sign * f(x) > 0:
            return x
        x = origin + (x - origin) * factor
    raise NoConvergence(f"cannot bracket {what}")


def _ladder(f, lo, ceiling):
    """Ratio-8 bracket of the root of f below ceiling: climb from lo, where
    f < 0, over the rungs ceiling + (lo - ceiling) 8^-k to the first with
    f > 0.  The rungs are the same floats for every level of a well, so an
    enumeration analyses each of them once; the ceiling, where f >= 0,
    closes a ladder that runs out of floats."""
    while True:
        hi = ceiling + (lo - ceiling) * 0.125
        if not hi < ceiling:
            return lo, ceiling
        if f(hi) > 0:
            return lo, hi
        lo = hi


def _solve_inner(n1, target, p, varies, e_max=math.inf):
    """Bracketed root of F(E) = N_1(E) - target(E) on the family's energy
    window, or None when F(e_max) < 0 puts the root above the cap e_max.

    A constant target is solved to 2e-12 + 1e-13 |E|; a threshold ceiling
    needs F >= 0, and a root that 2e-12 rounds onto it is solved again to
    1e-13 |E|.  A target that ``varies`` with E is solved to 1e-13 |E|
    alone, since N_1 changes over every decade of ceiling - E; below a
    threshold its bracket comes from ``_ladder``.  The cap test follows the
    capacity check and is skipped for a cap at or above the ceiling, which
    that check covers.
    """
    floor, ceiling = p.energy_window()
    f = lambda E: n1(E) - target(E)
    xtol = 1e-300 if varies else 2e-12
    threshold = floor is not None and ceiling is not None

    if threshold:
        # wells that end at the continuum threshold: capacity check at the top
        n_top, t_top = n1(ceiling), target(ceiling)
        if n_top < t_top:
            raise NoBoundState(
                f"T = {t_top:g} exceeds the well capacity N1({ceiling:g}) = {n_top:g}")
    if e_max < (math.inf if ceiling is None else ceiling) and f(e_max) < 0:
        return None

    if threshold:
        lo = _expand(f, floor, 8.0, -1, "below the deepest level", tries=60)
        if varies:
            return brentq(f, *_ladder(f, lo, ceiling), xtol=xtol, rtol=1e-13, maxiter=200)
        E = brentq(f, lo, ceiling, xtol=xtol, rtol=1e-13, maxiter=200)
        if E == ceiling and n_top > t_top:
            # a root within xtol of the threshold: N_1 changes on every decade of -E
            E = brentq(f, lo, ceiling, xtol=1e-300, rtol=1e-13, maxiter=200)
        return E
    elif ceiling is not None:
        # E in (-inf, ceiling): close in on the threshold, then go deep
        scale = p.energy_scale()
        hi = _expand(f, ceiling - 1e-9 * scale, 0.25, 1, "the shallow side", origin=ceiling)
        lo = _expand(f, ceiling + min(-scale, 4.0 * (hi - ceiling)), 4.0, -1, "the deep side",
                     origin=ceiling)
    elif floor is None:
        # wells spanning the whole axis (Coulomb core + confining tail)
        hi = _expand(f, 1.0, 2.0, 1, "on the confining side")
        lo = _expand(f, -1.0, 4.0, -1, "on the deep side")
    else:
        # confining wells bounded below: E in (floor, inf)
        # the doublings from floor + 1 = 1 span the float range up to 2^1022
        hi = _expand(f, floor + max(abs(floor), 1.0), 2.0, 1, "above the well bottom",
                     origin=floor, tries=1023)
        lo = _expand(f, floor + (hi - floor) * 0.5, 0.25, -1, "near the well bottom",
                     origin=floor)
    return brentq(f, lo, hi, xtol=xtol, rtol=1e-13, maxiter=200)


def _level_terms(p, level, mode):
    """(target, phi, varies) of one level: T(E) as the quantization
    condition N_1(E) = T(E) reads it, the slope phi(E) (None in non-linear
    mode), and whether T depends on E.  The solve and an enumeration's cap
    test both take T from here."""
    nu, lam = level.nu, level.lam
    if mode == "nonlinear":
        if lam == 0.0:
            raise LambdaTooSmall("non-linear form needs lambda > 0")

        def target(E):
            s = p.slice_at(E)
            return _mellin_t(level, chi_d(s, 1.0), chi_infinity(s), s.A)

        return target, None, True

    phi_at = lambda E: phi_additive(p.slice_at(E), level.d)
    if lam == 0.0:
        return (lambda E: nu), phi_at, False
    if p.scale_free:
        phi = phi_at(p.reference_energy())
        T = nu + phi * lam
        return (lambda E: T), (lambda E: phi), False
    return (lambda E: nu + phi_at(E) * lam), phi_at, True


def quantize_energy(p, level, mode="linear", _e_max=math.inf):
    """Invert the quantization condition for one level.

    ``mode="linear"`` solves N_1(E) = nu + phi(E) lambda as one bracketed
    root of F(E) = N_1(E) - nu - phi(E) lambda, phi taken on the slice N_1
    analyses at each probe.  T is a constant where phi drops out (lambda =
    0) or is exact at the reference energy (``p.scale_free``).  Near a
    threshold phi rises with E and F need not be monotone: F(ceiling) < 0
    means no level (``NoBoundState``), even if F has a pair of roots below
    it; otherwise the root is the one brentq reaches on the first step of
    the ladder lo 8^-k (k = 0, 1, ...), up from the deepest probe lo, on
    which F turns positive (the only root below the ceiling in 96 screened
    wells sampled with l <= 4).  A constant T keeps the bracket from that
    deepest probe to the ceiling.

    ``"nonlinear"`` solves N_1(E) = T(E) the same way, with T the Mellin
    form built from (chi_1, chi_inf, A) on the slice of each probe.  Its
    validity bound lambda/A >= 0.05 is checked at the root only: the
    shallow probes have A -> inf.

    Slices come from ``p.slice_at`` and stay on p.  An enumeration passes
    its cap ``_e_max``; the result is then None, and no root is solved,
    when F(_e_max) < 0.
    """
    if mode not in ("linear", "nonlinear"):
        raise ValueError(f"unknown mode {mode!r}")
    n1 = lambda E: action_I(p.slice_at(E), 0.0)
    target, phi_at, varies = _level_terms(p, level, mode)
    E = _solve_inner(n1, target, p, varies, _e_max)
    if E is None:
        return None

    if phi_at is None:
        s = p.slice_at(E)
        T, phi = teff_nonlinear(level, chi_d(s, 1.0), chi_infinity(s), s.A), None
    else:
        phi = phi_at(E)
        T = level.nu + phi * level.lam
    return SpectrumEntry(n_r=level.n_r, l=level.l, d=level.d, T=T, E=E,
                         mode=mode, phi=phi, iterations=1, residual=abs(n1(E) - T))


def enumerate_bound_states(p, e_max, d, l_max, mode="linear"):
    """All levels with E <= e_max for l = 0..l_max, sorted by energy.

    For each l the radial index is incremented until the well runs out of
    capacity or the energy cap is passed (T grows with n_r, so both
    stopping rules are monotone).  Once a level lies below the cap, the
    cap is tested before each further level is solved: F(e_max) < 0, on
    the slice at e_max that every level shares, ends the channel, so no
    level above the cap is solved.  A cap at or below the floor of the
    energy window holds no level and analyses no slice.  The levels take
    their slices from p, so the energies their solves have in common (the
    cap, the threshold and the rungs of the ladder below it) are analysed
    once, and the slices stay on p for a diagram drawn after it.
    """
    if math.isnan(e_max):
        raise ValueError("energy cap must not be NaN")
    floor, ceiling = p.energy_window()
    if e_max == math.inf and ceiling is None:
        # a well with no continuum threshold has infinitely many levels
        raise ValueError("energy cap must be finite for a well without a threshold")
    if p.levels_accumulate and e_max >= ceiling:
        raise ValueError(f"levels accumulate at the threshold {ceiling:g}; "
                         "the energy cap must lie below it")
    if floor is not None and e_max <= floor:
        return []
    found = []
    for l in range(l_max + 1):
        for n_r in range(200):
            try:
                # the cap is tested once a level lies below it, which keeps
                # a cap far below the spectrum off the slice analysis
                entry = quantize_energy(p, QuantumLevel(n_r, l, d), mode=mode,
                                        _e_max=e_max if found else math.inf)
            except NoBoundState:
                break
            if entry is None or entry.E > e_max:
                break
            found.append(entry)
        else:
            raise NoConvergence("more than 200 radial levels requested in one channel")
    return sorted(found, key=lambda e: e.E)


@dataclass(frozen=True)
class ScalingReport:
    """Power-law consistency: log E vs log T slope and l-convexity sign."""

    slope: float
    expected_slope: float
    slope_ok: bool
    convexity_signs: tuple
    expected_sign: int
    convexity_ok: bool


_SLOPE_TOL = 1e-3  # largest accepted error of the fitted log E / log T slope


def power_law_scaling_check(b, mu, d, levels):
    """Fit E proportional to T^(2 mu/(mu+2)) over the given levels and check
    the sign of the second difference of E(0, l) against sgn(mu - 2)."""
    if not mu > 0:
        raise ValueError("scaling check applies to mu > 0")
    p = PowerLaw(b=b, mu=mu)
    entries = [quantize_energy(p, lvl) for lvl in levels]
    log_t = np.log([e.T for e in entries])
    log_e = np.log([e.E for e in entries])
    slope = float(np.polyfit(log_t, log_e, 1)[0])
    expected = 2.0 * mu / (mu + 2.0)

    nodeless = sorted((e for e in entries if e.n_r == 0), key=lambda e: e.l)
    signs = []
    for a, b_, c in zip(nodeless, nodeless[1:], nodeless[2:]):
        if b_.l - a.l == 1 and c.l - b_.l == 1:
            second = c.E - 2.0 * b_.E + a.E
            signs.append(1 if second > 0 else (-1 if second < 0 else 0))
    expected_sign = 1 if mu > 2 else (-1 if mu < 2 else 0)
    convexity_ok = all(s == expected_sign for s in signs) if signs else True
    return ScalingReport(slope=slope, expected_slope=expected,
                         slope_ok=abs(slope - expected) <= _SLOPE_TOL,
                         convexity_signs=tuple(signs), expected_sign=expected_sign,
                         convexity_ok=convexity_ok)
