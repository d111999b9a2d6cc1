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
index is the node count.  Romberg steps on the grids 8h, 4h, 2h and h,
(4096 E_h - 1344 E_(2h) + 84 E_(4h) - E_(8h)) / 2835, remove the h^2, h^4
and h^6 errors.  None of this shares code with the quadrature pipeline;
independence is the point.

The deep-left diagonal ~ 1/(h^2 r^2) stretches the Gershgorin interval of
the matrix to 1e12-1e65, so bisecting it for an eigenvalue index costs
70-250 Sturm sweeps even to 1e-9 of the well's energy scale.  A level
therefore runs one such index search, on a grid with 64 times fewer
intervals than the grid h, and finds every other eigenvalue in a narrow
window:

- on the seed grid, with 8 times fewer intervals than the grid h, a window
  around that value gives the seed to 1e-9 of itself; the window is 64
  times the grid 4h's, as the index grid's h^2 error is 64 times the
  seed grid's;
- the bracket takes that seed, and one Sturm count N(e_hi) on the grid h
  (two sweeps) decides whether the level lies below the window top e_hi;
  a confining well whose seed lies in the upper half of the window
  raises the top and seeds again from that seed, with no second index
  search;
- on the grid 8h, the count N(vl) at vl = seed - delta certifies that the
  n_r-th eigenvalue is the (n_r - N(vl))-th one in (vl, seed + delta],
  and bisection runs on that window alone; the seed grid is the grid 8h
  before the cut below, so a window a few times the seed's tolerance
  holds the level;
- the grid 4h's window is centred on E_(8h), and the grid 2h's on the h^2
  prediction from the two before it: an error c h^2 puts E_(8h) 64 c h^2
  above the level, E_(4h) 16 c h^2, E_(2h) 4 c h^2 and E_h c h^2, so a
  window a few percent of c h^2 wide holds the level;
- the grid h's window is centred on the limit of the three grids before,
  exact to O(h^6), plus a quarter of E_(2h)'s error.  The four grids have
  1.875 times the nodes of the grid h, and half as many as three grids at
  half the step.

A window that misses the level is widened, and a count below the
Gershgorin floor is 0.

The step of the grid h is exactly ``_STEP`` = 2^-8, and its number of
intervals is a multiple of 8, so the grids 2h, 4h and 8h keep its end
nodes.  The left edge sits on a multiple of the step, so every node is an
exact binary fraction, and the right edge absorbs the rest of the span;
at a hard wall psi = 0 on the wall, and the left edge absorbs it instead.  At
lambda = 0 the level keeps its weight on the deep-left rows, where a step
that is not a binary fraction moves it by up to 2e-8 as the grid's length
changes (Coulomb, d = 2).  The right edge sits where psi has decayed by
``_DECAY_MARGIN``, past double precision.  The left edge sits where
dropping W stops mattering: the ghost node psi_(-1) = psi_0 / mu, with
mu + 1/mu = 2 + lambda^2 h^2, continues psi exactly where W = 0, so the
grid starts at the first node, down from the inner turning point, where
|W| weighted by psi^2 ~ e^(2 lambda (rho - rho_in)) is below ``_EDGE``
lambda^2 (at lambda = 0, where psi tends to a constant, where |W| is below
``_FLAT_EDGE``).  The grid h is the window's grid cut at the node past
which a top just above the seed has decayed by ``_DECAY_MARGIN``, so a
deep level does not carry the long tail of the window top.  The cut keeps
every node, so its matrix is the leading block of the matrix the bracket
counted on.
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

_STEP = 1.0 / 256.0      # rho spacing of the grid h, exactly; 2h, 4h and 8h multiply it
# e-folds of decay between the level and the right edge, or the cut.
# Cutting psi off where it has decayed by e^(-M) moves the eigenvalue by
# about e^(-2M) of itself, the share of the norm lost past the edge;
# e^(-2M) <= 2^-53, the unit roundoff of double precision, gives
# M = 53 ln(2) / 2 = 18.4
_DECAY_MARGIN = 26.5 * math.log(2.0)
# left edge: the W that the grid drops, weighted by psi^2, is at most this
# times lambda^2; at lambda = 0, where psi tends to a constant, |W| itself is
# below _FLAT_EDGE
_EDGE = 1e-18
_FLAT_EDGE = 1e-13
# deepest left edge: off-diagonal entries ~ 1/(h^2 r^2) must stay far below
# sqrt(float max), which LAPACK squares, and so must its pivot floor; the
# right edge stays below -_RHO_FLOOR, past which their squares underflow
_RHO_FLOOR = -150.0
_SEED_COARSENING = 8     # the seed grid has this many times fewer intervals: the grid 8h
_SEED_TOL = 1e-9         # relative: a seed needs only to land well inside its window
_WINDOW = 4e-3           # 4h window half-width, relative to E_8h; the seed's is 64 times wider
_PREDICTED_WINDOW = 0.05  # 2h window half-width, relative to the h^2 error c h^2
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


def _intervals(span):
    """Intervals of step ``_STEP`` that cover ``span``: at least 64, and a
    multiple of 8, so that the grids 2h, 4h and 8h keep the end nodes."""
    return max(8 * math.ceil(span / (8 * _STEP)), 64)


def _grid(p, level, e_lo, e_hi):
    """(rho_lo, rho_hi, intervals) of the grid h for an energy window: the
    step is exactly ``_STEP``, and the right edge absorbs the rest of the
    span, the left one sitting on a multiple of ``_STEP``; at a hard wall
    the left edge absorbs it."""
    lam = level.lam
    s = analyze_slice(p, e_hi)
    rho_m = math.log(s.r_m)

    # left edge: the first node, down on a 1/4 step, where the W the grid
    # drops is negligible at both ends of the window.  Where W = 0 the ghost
    # node continues psi exactly, so what is lost left of the edge is W
    # weighted by psi^2 ~ e^(2 lambda (rho - rho_in)), counted from the inner
    # turning point W = lambda^2, not from the W maximum: near a threshold
    # that of a slowly decaying tail lies far outside the well.  At
    # lambda = 0 psi tends to a constant, so W itself must vanish
    if lam > 0:
        rho_in = _inner_turning_point(p, e_hi, lam * lam, rho_m)
        top = min(rho_in, rho_m) - 1.0
    else:
        top = rho_m - 1.0
    top = max(top, _RHO_FLOOR)
    rho = top - 0.25 * np.arange(int((top - _RHO_FLOOR) / 0.25) + 1)
    w = np.maximum(np.abs(p.W(e_lo, rho)), np.abs(p.W(e_hi, rho)))
    if lam > 0:
        # the weight is compared as its inverse, capped where no finite W
        # could reach it, so an infinite W never meets an underflowed psi^2
        dropped = w <= _EDGE * lam * lam * np.exp(np.minimum(2.0 * lam * (rho_in - rho), 700.0))
    else:
        dropped = w < _FLAT_EDGE
    edge = np.flatnonzero(dropped)
    if edge.size:
        rho_lo = float(rho[edge[0]])
    elif lam == 0.0:
        raise NoConvergence("inner region where W vanishes is unreachably deep")
    else:
        rho_lo = float(rho[-1])  # psi ~ e^(lambda rho) has decayed this far already

    rho_hi = _right_edge(s, level)
    if not s.boundary_max:
        rho_lo = math.floor(rho_lo / _STEP) * _STEP
    n = _intervals(rho_hi - rho_lo)
    if s.boundary_max:
        rho_lo = rho_hi - n * _STEP
    else:
        rho_hi = rho_lo + n * _STEP
    if rho_lo < _RHO_FLOOR or rho_hi > -_RHO_FLOOR:
        raise NoConvergence(f"grid ({rho_lo:.4g}, {rho_hi:.4g}) in ln r reaches past "
                            f"|ln r| = {-_RHO_FLOOR:g}, where the matrix cannot represent it")
    return rho_lo, rho_hi, n


def _right_edge(s, level):
    """Where psi = 0 for energies up to that of the slice s: a hard wall, or
    a point that energy reaches only after the full decay margin under the
    barrier.  At the continuum threshold with lambda = 0 there is no
    barrier, and the march stops once W can no longer bend the solution."""
    if s.boundary_max:
        return math.log(s.r_t)
    p, e, lam = s.p, s.E, level.lam
    w_scale = max(s.A**2, lam**2)
    rho_m = rho_hi = math.log(s.r_m)
    accumulated = 0.0
    step = 0.25
    while accumulated < _DECAY_MARGIN:
        w_here = float(p.W(e, rho_hi))
        q_here = lam * lam - w_here
        if q_here > 0.0:
            accumulated += math.sqrt(q_here) * step
        elif lam == 0.0 and abs(w_here) < 1e-12 * w_scale:
            break
        rho_hi += step
        if rho_hi - rho_m > 5e3:
            raise NoConvergence("outer decay region is unreachably wide")
    return rho_hi


def _level_grid(p, level, grid, e_hi, seed):
    """The window's grid, cut on one of its nodes past which a top just
    above the seed has decayed by the full margin: the decay counts from
    the level, not from e_hi, and every node that is kept stays where it
    was.  A top at e_hi keeps the whole grid, which was built for e_hi."""
    top = min(e_hi, seed + 0.5 * abs(seed))
    if top >= e_hi:
        return grid
    rho_lo, _, n = grid
    cut = _right_edge(analyze_slice(p, top), level)
    m = _intervals(cut - rho_lo)
    return grid if m >= n else (rho_lo, rho_lo + m * _STEP, m)


def _matrix(p, level, rho_lo, rho_hi, intervals):
    """Diagonal and off-diagonal of the symmetric three-point matrix."""
    rho, h = np.linspace(rho_lo, rho_hi, intervals + 1, retstep=True)
    r = np.exp(rho[:-1])  # psi = 0 on the last node
    two_r2 = 2.0 * r * r
    lam = level.lam
    d = (2.0 / (h * h) + lam * lam + two_r2 * p.V(r)) / two_r2
    # ghost node psi_(-1) = psi_0 / mu, with mu + 1/mu = 2 + lambda^2 h^2:
    # psi_i = mu^i solves the discrete -psi'' + lambda^2 psi = 0 exactly, so
    # where W = 0 left of the grid the first row is its exact continuation
    d[0] -= math.exp(-2.0 * math.asinh(0.5 * lam * h)) / (h * h * two_r2[0])
    off = -1.0 / (2.0 * h * h * r[:-1] * r[1:])
    return d, off


def _window(d, off, vl, vu, tol):
    """Eigenvalues of the matrix in (vl, vu], bisected to ``tol``."""
    m, w, _, _, info = dstebz(d, off, 1, vl, vu, 0, 0, tol, b"E")
    if info != 0:
        raise NoConvergence(f"dstebz failed with info = {info}")
    return w[:m]


def _floor(d, off):
    """Gershgorin lower bound (off < 0), kept clear of rounding."""
    floor = float(np.min(d + np.r_[off, 0.0] + np.r_[0.0, off]))
    return floor - 1e-9 * abs(floor)


def _count(d, off, floor, v):
    """N(v), the number of eigenvalues <= v, 0 at or below the Gershgorin
    floor: a tolerance wider than (floor, v] stops dstebz before its first
    bisection step, so the count costs two Sturm sweeps."""
    return len(_window(d, off, floor, v, 2.0 * (v - floor))) if v > floor else 0


def _seed(p, level, grid, near=None):
    """n_r-th eigenvalue on ``grid`` with 8 times fewer intervals, to
    ``_SEED_TOL`` of itself.  The one index search over the whole
    Gershgorin interval runs on the grid 64 times coarser, whose h^2 error
    is 64 times the seed grid's, and a window that much wider around its
    value finds the seed.  ``near``, the seed of the same level on an
    earlier grid, replaces the index search: the window is centred on it,
    and the count at its lower end certifies the index."""
    rho_lo, rho_hi, intervals = grid
    k = _SEED_COARSENING
    if near is None:
        d, off = _matrix(p, level, rho_lo, rho_hi, max(intervals // (k * k), 64))
        near = float(eigh_tridiagonal(d, off, eigvals_only=True, select="i",
                                      select_range=(level.n_r, level.n_r), lapack_driver="stebz",
                                      tol=_SEED_TOL * p.energy_scale())[0])
    tol = _SEED_TOL * (abs(near) or p.energy_scale())
    return _windowed_eigenvalue(p, level, (rho_lo, rho_hi, max(intervals // k, 64)), near,
                                k * k * _WINDOW * abs(near) + tol, tol)


def _windowed_eigenvalue(p, level, grid, centre, delta, tol, matrix=None):
    """n_r-th eigenvalue on ``grid``, bisected to ``tol`` in the window
    (centre - delta, centre + delta], which the count N(centre - delta)
    certifies; a window that misses the level is widened 8-fold.
    ``matrix``, if given, is the grid's (d, off), already built."""
    n_r = level.n_r
    d, off = _matrix(p, level, *grid) if matrix is None else matrix
    floor = _floor(d, off)
    for _ in range(_MAX_WIDENINGS):
        vl, vu = centre - delta, centre + delta
        below = _count(d, off, floor, vl)
        w = _window(d, off, vl, vu, tol)
        if 0 <= n_r - below < len(w):
            return float(w[n_r - below])
        delta *= 8.0
    raise NoConvergence(f"no window around {centre:.10g} holds level n_r = {n_r}")


def _refine(p, level, e_lo, e_hi, grid, seed, matrix=None):
    """Romberg value of the level from the grids 8h, 4h, 2h and h, given
    the window's grid, a seed from its grid 8h and, if the bracket built
    it, the window grid's matrix: the 8h window is centred on the seed,
    the 4h window on E_(8h), the 2h window on the h^2 prediction from the
    grids 8h and 4h, and the h window on the prediction from the three
    grids before."""
    grid = _level_grid(p, level, grid, e_hi, seed)
    rho_lo, rho_hi, m = grid
    if matrix is not None:
        # the cut keeps every node: its matrix is the leading m x m block
        matrix = matrix[0][:m], matrix[1][:m - 1]
    # the default tolerance scales with the norm of this strongly graded
    # matrix, which dwarfs the level; use an absolute one at the level's scale
    tol = 1e-14 * max(abs(e_lo), abs(e_hi))

    def level_on(k, centre, delta, matrix=None):
        return _windowed_eigenvalue(p, level, (rho_lo, rho_hi, m // k), centre,
                                    delta + tol, tol, matrix)

    # the seed grid is the uncut grid 8h, bisected to _SEED_TOL
    e_8h = level_on(8, seed, 4.0 * _SEED_TOL * abs(seed))
    e_4h = level_on(4, e_8h, _WINDOW * abs(e_8h))
    # an error c h^2 puts e_8h 64 c h^2 above the level, e_4h 16 c h^2,
    # e_2h 4 c h^2 and e_h c h^2
    c_h2 = (e_8h - e_4h) / 48.0
    e_2h = level_on(2, e_4h - 12.0 * c_h2, _PREDICTED_WINDOW * abs(c_h2))
    # the limit of the three grids is exact to O(h^6); e_h lies a quarter
    # of e_2h's error above it.  With an h^4 error d h^4 as well, the 2h
    # prediction misses by 180 d h^4 and this one by 3 d h^4, so its
    # window is 16 times narrower
    limit = (64.0 * e_2h - 20.0 * e_4h + e_8h) / 45.0
    c_h2 = (e_2h - limit) / 4.0
    e_h = level_on(1, limit + c_h2, _PREDICTED_WINDOW / 16.0 * abs(c_h2), matrix)
    e = (4096.0 * e_h - 1344.0 * e_2h + 84.0 * e_4h - e_8h) / 2835.0
    if not e_lo < e < e_hi:
        raise BracketMiss(
            f"level n_r = {level.n_r} lies at {e:.10g}, outside the bracket "
            f"({e_lo:.10g}, {e_hi:.10g})")
    return e


def numerov_eigenvalue(p, level, e_bracket):
    """Eigenvalue of the radial equation inside ``e_bracket``.

    The bracket sets the seed grid and must contain the requested level.
    The n_r-th eigenvalue is found on grids with steps 8h, 4h, 2h and h
    and combined by Romberg steps into
    (4096 E_h - 1344 E_(2h) + 84 E_(4h) - E_(8h)) / 2835.
    """
    e_lo, e_hi = float(e_bracket[0]), float(e_bracket[1])
    if not e_lo < e_hi:
        raise BracketMiss("empty energy bracket")
    grid = _grid(p, level, e_lo, e_hi)
    return _refine(p, level, e_lo, e_hi, grid, _seed(p, level, grid))


def _bracket(p, level):
    """(e_lo, e_hi, seed, grid, matrix): the window of
    ``bracket_bound_state``, the seed-grid eigenvalue it was built from, the
    grid h built for e_hi, and that grid's (d, off) if the count below a
    threshold built it, else None."""
    _, ceiling = p.energy_window()
    matrix = None
    if ceiling is not None:
        e_hi = ceiling - 1e-9 * p.energy_scale()
        grid = _grid(p, level, e_hi, e_hi)
        seed = _seed(p, level, grid)
        # the full grid decides: the seed of a level just under e_hi may
        # lie on either side of it
        matrix = d, off = _matrix(p, level, *grid)
        if _count(d, off, _floor(d, off), e_hi) <= level.n_r:
            if p.levels_accumulate:
                raise BracketMiss(
                    f"level n_r = {level.n_r} lies above the window top {e_hi:.3g} "
                    f"(ceiling - 1e-9 * energy scale): too close to the threshold "
                    f"for the oracle")
            raise BracketMiss(f"well holds no level with n_r = {level.n_r} in this channel")
        e = min(seed, e_hi)
    else:
        e_hi = max(4.0 * p.reference_energy(), p.energy_scale())
        seed = None
        for _ in range(80):
            # a raised top starts from the seed just found: no second
            # index search
            grid = _grid(p, level, e_hi, e_hi)
            seed = _seed(p, level, grid, seed)
            if seed < 0.5 * e_hi:
                break
            e_hi = 4.0 * seed
        else:
            raise BracketMiss("cannot push the upper bracket high enough")
        e = seed
    return e - max(e_hi - e, abs(e)), e_hi, seed, grid, matrix


def bracket_bound_state(p, level):
    """An energy window (e_lo, e_hi) that contains the level.

    Below a continuum threshold the top sits just under it, and a level
    the well cannot hold raises ``BracketMiss``; a confining well's top is
    raised until the level lies in the lower half of the window.  The
    window reaches as far below the level as above it, and at least |E|
    below it, so the refined value stays inside.
    """
    return _bracket(p, level)[:2]


def solve_bound_state(p, level):
    """Find the energy window, then refine on the grid, from the seed and
    with the matrix it was built on."""
    e_lo, e_hi, seed, grid, matrix = _bracket(p, level)
    return _refine(p, level, e_lo, e_hi, grid, seed, matrix)
