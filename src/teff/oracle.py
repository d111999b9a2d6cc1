"""Independent ground truth: exact reference spectra and a direct
radial-equation eigensolver.

The eigensolver works in the log-radius variable rho = ln r, where the
radial equation is the symmetric pencil

    -psi'' + (lambda^2 + 2 r^2 V) psi = E (2 r^2) psi

with psi ~ e^(lambda rho) as rho -> -inf.  Three-point differences on a
uniform rho grid, symmetrised with diag(2 r^2)^(-1/2), give a symmetric
tridiagonal matrix.  A Sturm-sequence count (Barth, Martin & Wilkinson,
Numer. Math. 9, 1967; LAPACK ``dstebz``) picks its n_r-th eigenvalue
directly: that eigenvector has exactly n_r sign changes, so the Sturm
index is the node count.  One Richardson step on two grids removes the
h^2 error.  None of this shares code with the quadrature pipeline;
independence is the point.

The deep-left diagonal ~ 1/(h^2 r^2) stretches the Gershgorin interval of
the matrix to 1e13-1e65, so bisecting it for an eigenvalue index costs
180-500 Sturm sweeps.  The search therefore runs in a narrow window: an
index search on a grid with 8 times fewer intervals gives a seed; the
Sturm count N(vl) on the full grid at vl = seed - delta certifies that
the n_r-th eigenvalue is the (n_r - N(vl))-th one in (vl, seed + delta];
bisection on that window alone takes about 40 sweeps.  A window that
misses the level is widened, and a count below the Gershgorin floor is 0.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.linalg.lapack import dstebz

from .errors import BracketMiss, NoConvergence
from .potentials import analyze_slice

__all__ = [
    "exact_reference_spectrum",
    "numerov_eigenvalue",
    "bracket_bound_state",
    "solve_bound_state",
]

_STEP = 1.0 / 512.0      # coarse rho spacing; the fine grid halves it
_DECAY_MARGIN = 35.0     # e-folds of decay between the level and a grid edge
# deepest left edge: off-diagonal entries ~ 1/(h^2 r^2) must stay far below
# sqrt(float max), which LAPACK squares, and so must its pivot floor
_RHO_FLOOR = -150.0
_SEED_COARSENING = 8     # the seed grid has this many times fewer intervals
_SEED_TOL_FACTOR = 1e5   # the seed needs only to land well inside its window
_WINDOW = 1e-3           # first window half-width, relative to the seed
_MAX_WIDENINGS = 30      # each one 8 times wider: far past any seed's error


def exact_reference_spectrum(kind, strength, level):
    """Closed-form spectra of the two reference wells.

    ``coulomb``: V = -Z/r with E = -Z^2 / (2 (nu + lambda)^2).
    ``oscillator``: V = b r^2 with E = 2 sqrt(2 b) (nu + lambda/2).
    """
    nu, lam = level.nu, level.lam
    if kind == "coulomb":
        return -strength**2 / (2.0 * (nu + lam) ** 2)
    if kind == "oscillator":
        return 2.0 * math.sqrt(2.0 * strength) * (nu + 0.5 * lam)
    raise ValueError(f"unknown reference kind {kind!r}")


def _inner_turning_point(p, E, q, rho_m):
    """The largest rho <= rho_m, on a 1/4 step, where W(E, rho) <= q."""
    rho = rho_m - 0.25 * np.arange(int((rho_m - _RHO_FLOOR) / 0.25) + 1)
    below = np.flatnonzero(p.W(E, rho) <= q)
    return float(rho[below[0]]) if below.size else _RHO_FLOOR


def _grid(p, level, e_lo, e_hi):
    """(rho_lo, rho_hi, intervals) of the coarse grid for an energy window.

    psi = 0 at rho_hi: a hard wall, or a point the top of the window
    reaches only after the full decay margin under the barrier.
    """
    lam = level.lam
    s = analyze_slice(p, e_hi)
    rho_m = math.log(s.r_m)
    w_scale = max(s.A**2, lam**2)

    # left edge: enough e^(lambda rho) suppression, and W negligible; at
    # lambda = 0 psi tends to a constant, so W itself must vanish there.
    # The suppression is counted from the inner turning point W = lambda^2
    # too: near a threshold the W maximum of a slowly decaying tail lies
    # far outside the well
    if lam > 0:
        margin = max(_DECAY_MARGIN / lam, 12.0)
        rho_in = _inner_turning_point(p, e_hi, lam * lam, rho_m)
        rho_lo = min(rho_m - margin, max(rho_in - margin, _RHO_FLOOR))
        w_small = 1e-12 * w_scale
    else:
        rho_lo = rho_m - 40.0
        w_small = 1e-13
    while max(abs(float(p.W(e_lo, rho_lo))), abs(float(p.W(e_hi, rho_lo)))) >= w_small:
        if rho_lo - 5.0 < _RHO_FLOOR:
            if lam == 0.0:
                raise NoConvergence("inner region where W vanishes is unreachably deep")
            break  # psi ~ e^(lambda rho) has decayed past the margin already
        rho_lo -= 5.0

    # right edge: hard wall, or enough WKB suppression past the turning point;
    # at the continuum threshold with lambda = 0 there is no barrier and the
    # march stops once W can no longer bend the solution
    if s.boundary_max:
        rho_hi = math.log(s.r_t)
    else:
        rho_hi = rho_m
        accumulated = 0.0
        step = 0.25
        while accumulated < _DECAY_MARGIN:
            w_here = float(p.W(e_hi, rho_hi))
            q_here = lam * lam - w_here
            if q_here > 0.0:
                accumulated += math.sqrt(q_here) * step
            elif lam == 0.0 and abs(w_here) < 1e-12 * w_scale:
                break
            rho_hi += step
            if rho_hi - rho_m > 5e3:
                raise NoConvergence("outer decay region is unreachably wide")
    return rho_lo, rho_hi, max(int(math.ceil((rho_hi - rho_lo) / _STEP)), 64)


def _matrix(p, level, rho_lo, rho_hi, intervals):
    """Diagonal and off-diagonal of the symmetric three-point matrix."""
    rho, h = np.linspace(rho_lo, rho_hi, intervals + 1, retstep=True)
    r = np.exp(rho[:-1])  # psi = 0 on the last node
    two_r2 = 2.0 * r * r
    lam = level.lam
    d = (2.0 / (h * h) + lam * lam + two_r2 * p.V(r)) / two_r2
    # ghost node psi_(-1) = e^(-lambda h) psi_0 carries psi ~ e^(lambda rho)
    d[0] -= math.exp(-lam * h) / (h * h * two_r2[0])
    off = -1.0 / (2.0 * h * h * r[:-1] * r[1:])
    return d, off


def _window(d, off, vl, vu, tol):
    """Eigenvalues of the matrix in (vl, vu], bisected to ``tol``."""
    m, w, _, _, info = dstebz(d, off, 1, vl, vu, 0, 0, tol, b"E")
    if info != 0:
        raise NoConvergence(f"dstebz failed with info = {info}")
    return w[:m]


def _grid_eigenvalue(p, level, rho_lo, rho_hi, intervals, tol):
    """n_r-th eigenvalue of the three-point discretisation on one grid,
    found in a window around a coarse-grid seed (see the module notes)."""
    n_r = level.n_r
    d, off = _matrix(p, level, rho_lo, rho_hi, max(intervals // _SEED_COARSENING, 64))
    seed = float(eigh_tridiagonal(d, off, eigvals_only=True, select="i",
                                  select_range=(n_r, n_r), lapack_driver="stebz",
                                  tol=_SEED_TOL_FACTOR * tol)[0])
    d, off = _matrix(p, level, rho_lo, rho_hi, intervals)
    # Gershgorin lower bound (off < 0), kept clear of rounding
    floor = float(np.min(d + np.r_[off, 0.0] + np.r_[0.0, off]))
    floor -= 1e-9 * abs(floor)
    delta = _WINDOW * abs(seed) + tol
    for _ in range(_MAX_WIDENINGS):
        vl, vu = seed - delta, seed + delta
        # N(vl): a tolerance wider than (floor, vl] stops dstebz before its
        # first bisection step, so the count costs two Sturm sweeps
        below = len(_window(d, off, floor, vl, 2.0 * (vl - floor))) if vl > floor else 0
        w = _window(d, off, vl, vu, tol)
        if 0 <= n_r - below < len(w):
            return float(w[n_r - below])
        delta *= 8.0
    raise NoConvergence(f"no window around {seed:.10g} holds level n_r = {n_r}")


def numerov_eigenvalue(p, level, e_bracket):
    """Eigenvalue of the radial equation inside ``e_bracket``.

    The bracket sets the grid and must contain the requested level.  The
    n_r-th eigenvalue is found on grids with steps h and h/2 and combined
    by one Richardson step, (4 E_(h/2) - E_h) / 3.
    """
    e_lo, e_hi = float(e_bracket[0]), float(e_bracket[1])
    if not e_lo < e_hi:
        raise BracketMiss("empty energy bracket")
    rho_lo, rho_hi, n = _grid(p, level, e_lo, e_hi)
    # the default tolerance scales with the norm of this strongly graded
    # matrix, which dwarfs the level; use an absolute one at the level's scale
    tol = 1e-14 * max(abs(e_lo), abs(e_hi))
    e_h, e_h2 = (_grid_eigenvalue(p, level, rho_lo, rho_hi, k * n, tol) for k in (1, 2))
    e = (4.0 * e_h2 - e_h) / 3.0
    if not e_lo < e < e_hi:
        raise BracketMiss(
            f"level n_r = {level.n_r} lies at {e:.10g}, outside the bracket "
            f"({e_lo:.10g}, {e_hi:.10g})")
    return e


def bracket_bound_state(p, level):
    """An energy window (e_lo, e_hi) that contains the level.

    Below a continuum threshold the top sits just under it, and a level
    the well cannot hold raises ``BracketMiss``; a confining well's top is
    raised until the level lies in the lower half of the window.  The
    window reaches as far below the level as above it, and at least |E|
    below it, so the refined value stays inside.
    """
    _, ceiling = p.energy_window()

    def coarse(e_hi):
        rho_lo, rho_hi, n = _grid(p, level, e_hi, e_hi)
        return _grid_eigenvalue(p, level, rho_lo, rho_hi, n, 1e-14 * abs(e_hi))

    if ceiling is not None:
        e_hi = ceiling - 1e-9 * p.energy_scale()
        e = coarse(e_hi)
        if e >= e_hi:
            raise BracketMiss(f"well holds no level with n_r = {level.n_r} in this channel")
    else:
        e_hi = max(4.0 * p.reference_energy(), p.energy_scale())
        for _ in range(80):
            e = coarse(e_hi)
            if e < 0.5 * e_hi:
                break
            e_hi = 4.0 * e
        else:
            raise BracketMiss("cannot push the upper bracket high enough")
    return e - max(e_hi - e, abs(e)), e_hi


def solve_bound_state(p, level):
    """Convenience wrapper: find the energy window, then refine."""
    return numerov_eigenvalue(p, level, bracket_bound_state(p, level))
