"""A second reference for bound-state levels where no closed form exists.

A sinc discrete-variable representation (DVR) of the pencil that
``teff.oracle`` solves,

    -psi'' + (lambda^2 + 2 r^2 V) psi = E (2 r^2) psi,   rho = ln r,

with the Colbert-Miller kinetic matrix (J. Chem. Phys. 96, 1982 (1992)) on
a uniform rho grid, symmetrised with diag(2 r^2)^(-1/2) and solved densely
by ``numpy.linalg.eigvalsh``.  It shares no code with the oracle: no
three-point matrix, no Sturm count, no Romberg steps, no grid rules.  Sinc
collocation converges like exp(-c / h) for a psi analytic in a strip, so a
step of 0.1 already lies at the float floor.

The symmetrised matrix is strongly graded: its diagonal ~ 1 / (h^2 r^2)
spans tens of decades from the deep left to the well.  The nodes run from
the deep left, so that the large entries lead; LAPACK's Householder
reduction of the lower triangle then keeps the small eigenvalues to about
1e-13 of the well's scale, while the reversed order loses every digit.
The wall and lambda = 0 are out of reach: plain sinc needs psi to decay
at both ends.
"""

import math

import numpy as np

_STEP = 0.1          # largest rho spacing; halving it moves no level past the float floor
# e-folds of decay at each end: of e^(lambda rho) left of the inner turning
# point, and WKB decay past the outer one.  The sinc kinetic matrix couples
# the end nodes with weight ~ 1 / (h r)^2, so psi^2 must fall far below 2^-53
_DECAY = 22.0
_SCAN = 1.0 / 16.0   # step of the turning-point scan, over |rho| < 150


def _grid(p, lam, e):
    """(rho_lo, rho_hi, step) of the grid for levels at or below the energy e.
    The step puts at least eight nodes in each local wavelength of psi, and
    shrinks as the barrier steepens: psi decays there like exp(-e^(s rho / 2))
    with s = d ln q / d rho, which is analytic only in a strip ~ pi / s wide."""
    rho = np.arange(-150.0, 150.0, _SCAN)
    r = np.exp(rho)
    with np.errstate(over="ignore"):  # a steep well overflows far outside
        q = lam * lam + 2.0 * r * r * (p.V(r) - e)  # psi'' = q psi
    allowed = np.flatnonzero(q < 0.0)
    inner, outer = allowed[0], allowed[-1]
    decay = np.cumsum(np.sqrt(np.maximum(q[outer:], 0.0))) * _SCAN
    right = min(outer + int(np.searchsorted(decay, _DECAY)), len(rho) - 2)
    steepness = math.log(q[right + 1] / q[right]) / _SCAN
    step = min(_STEP, math.pi / (4.0 * math.sqrt(-q[allowed].min())), 0.3 / steepness)
    return rho[inner] - _DECAY / lam, rho[right], step


def sinc_level(p, level, e_box):
    """The n_r-th eigenvalue of the sinc DVR on a grid that holds every
    level at or below ``e_box``; lambda must be positive."""
    lam = level.lam
    rho_lo, rho_hi, h = _grid(p, lam, e_box)
    k = np.arange(math.ceil((rho_hi - rho_lo) / h) + 1)
    r = np.exp(rho_lo + h * k)
    i_minus_j = k[:, None] - k[None, :]
    with np.errstate(divide="ignore"):
        kinetic = 2.0 * (-1.0) ** i_minus_j / (i_minus_j * i_minus_j)
    kinetic[k, k] = math.pi ** 2 / 3.0
    s = 1.0 / (math.sqrt(2.0) * r)  # diag(2 r^2)^(-1/2)
    a = s[:, None] * (kinetic / (h * h)) * s[None, :]
    a[k, k] += lam * lam * s * s + p.V(r)
    return float(np.linalg.eigvalsh(a)[level.n_r])
