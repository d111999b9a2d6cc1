"""Independent ground truth: exact reference spectra and a direct
radial-equation eigensolver.

The eigensolver works in the log-radius variable, where the transformed
radial equation

    psi'' = (lambda^2 - W(E, rho)) psi

is regular at both ends: psi ~ e^(lambda rho) as rho -> -inf and decays
under the WKB barrier outward.  A fourth-order three-term recurrence is
integrated from both ends, log-derivatives are matched at the maximum of
the local wavenumber, and the eigenvalue is refined by bisection on the
matching determinant inside a node-count bracket.  None of this shares
code with the quadrature pipeline; independence is the point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BracketMiss, NodeCountMismatch, NoConvergence
from .potentials import HardWall, analyze_slice

try:
    from numba import njit
except ImportError:  # pragma: no cover - numba is a declared dependency
    def njit(*args, **kwargs):
        if args and callable(args[0]):
            return args[0]
        return lambda f: f

__all__ = [
    "ShootingConfig",
    "exact_reference_spectrum",
    "numerov_eigenvalue",
    "bracket_bound_state",
    "solve_bound_state",
]


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


@dataclass(frozen=True)
class ShootingConfig:
    """Grid and tolerance knobs for the shooting eigensolver.

    ``step`` is the rho spacing; halving it must move eigenvalues by less
    than 1e-7 relative, which the fourth-order recurrence comfortably
    provides at the default.
    """

    step: float = 1.0 / 512.0
    tol_rel: float = 1e-10
    decay_margin: float = 35.0
    max_iter: int = 200


DEFAULT_SHOOTING = ShootingConfig()


@njit(cache=True)
def _sweep_left(c, lam_h, renorm_limit=1e250):
    """Forward three-term sweep; returns the full solution array and its
    sign-flip count.  Seeds follow e^(lambda rho) (constants for lambda = 0)."""
    n = c.shape[0]
    psi = np.empty(n)
    psi[0] = 1.0
    psi[1] = math.exp(lam_h)
    nodes = 0
    for i in range(1, n - 1):
        psi[i + 1] = ((12.0 - 10.0 * c[i]) * psi[i] - c[i - 1] * psi[i - 1]) / c[i + 1]
        if psi[i + 1] * psi[i] < 0.0:
            nodes += 1
        a = abs(psi[i + 1])
        if a > renorm_limit:
            s = 1.0 / a
            for j in range(i + 2):
                psi[j] *= s
    return psi, nodes


@njit(cache=True)
def _sweep_right(c, decay_h, wall, renorm_limit=1e250):
    """Backward sweep from the outer boundary (psi = 0 at a hard wall,
    WKB-decaying seed otherwise)."""
    n = c.shape[0]
    psi = np.empty(n)
    if wall:
        psi[n - 1] = 0.0
        psi[n - 2] = 1.0
    else:
        psi[n - 1] = 1.0
        psi[n - 2] = math.exp(decay_h)
    nodes = 0
    for i in range(n - 2, 0, -1):
        psi[i - 1] = ((12.0 - 10.0 * c[i]) * psi[i] - c[i + 1] * psi[i + 1]) / c[i - 1]
        if psi[i - 1] * psi[i] < 0.0:
            nodes += 1
        a = abs(psi[i - 1])
        if a > renorm_limit:
            s = 1.0 / a
            for j in range(i - 1, n):
                psi[j] *= s
    return psi, nodes


class _Workspace:
    """Reusable grid data for one (potential, level, energy window)."""

    def __init__(self, p, level, e_lo, e_hi, cfg):
        self.p = p
        self.level = level
        self.cfg = cfg
        lam = level.lam
        wall = isinstance(p, HardWall)
        probe = e_hi if not wall else max(e_hi, e_lo)
        s = analyze_slice(p, probe)
        rho_m = math.log(s.r_m)
        w_scale = max(s.A**2, lam**2)

        # left edge: enough e^(lambda rho) suppression, and W negligible
        if lam > 0:
            rho_lo = rho_m - max(cfg.decay_margin / lam, 12.0)
        else:
            rho_lo = rho_m - 40.0
        for _ in range(200):
            w_here = max(abs(float(p.W(e_lo, rho_lo))), abs(float(p.W(e_hi, rho_lo))))
            if w_here < 1e-12 * w_scale:
                break
            rho_lo -= 5.0

        # right edge: hard wall, or enough WKB suppression past the turning point;
        # at the continuum threshold with lambda = 0 there is no barrier and the
        # march stops once W can no longer bend the solution
        if wall:
            rho_hi = math.log(p.R)
        else:
            w = lambda x: float(p.W(e_hi, x))
            rho_hi = rho_m
            accumulated = 0.0
            step = 0.25
            while accumulated < cfg.decay_margin:
                w_here = w(rho_hi)
                q_here = lam * lam - w_here
                if q_here > 0.0:
                    accumulated += math.sqrt(q_here) * step
                elif lam == 0.0 and abs(w_here) < 1e-12 * w_scale:
                    break
                rho_hi += step
                if rho_hi - rho_m > 5e3:
                    raise NoConvergence("outer decay region is unreachably wide")

        n = int(math.ceil((rho_hi - rho_lo) / cfg.step)) + 1
        n = max(n, 64)
        self.rho = np.linspace(rho_lo, rho_hi, n)
        self.h = float(self.rho[1] - self.rho[0])
        r = np.exp(self.rho)
        if wall:
            # exp(log R) may round above R, which would put the last node
            # behind the wall (V = inf) and poison the backward sweep
            np.minimum(r, p.R, out=r)
        self.two_r2 = 2.0 * r * r
        with np.errstate(over="ignore"):
            v = np.asarray(p.V(r), dtype=float)
        self.w0 = -self.two_r2 * v
        self.lam2 = lam * lam
        self.wall = wall

    def coefficients(self, E):
        """(c, q, match index, truncation index) for one energy.

        The sweep is cut off once the forbidden region has supplied the
        full decay budget or h^2 q approaches the recurrence stability
        limit; past either point the solution is numerically dead and
        continuing would only inject spurious oscillations.
        """
        q = self.lam2 - (E * self.two_r2 + self.w0)
        c = 1.0 - (self.h * self.h / 12.0) * q
        m = min(max(int(np.argmin(q)), 2), len(q) - 3)
        if self.wall:
            end = len(q) - 1
        else:
            tail = q[m:]
            grow = np.cumsum(np.sqrt(np.maximum(tail, 0.0)) * self.h)
            cond = (grow >= self.cfg.decay_margin) | (tail * self.h * self.h > 6.0)
            end = m + int(np.argmax(cond)) if bool(cond.any()) else len(q) - 1
            end = min(max(end, m + 2, 4), len(q) - 1)
        return c, q, m, end

    def node_count(self, E):
        c, _, _, end = self.coefficients(E)
        _, nodes = _sweep_left(c[: end + 1], self.level.lam * self.h)
        return nodes

    def mismatch(self, E):
        """Scaled matching determinant at the classical peak, plus the
        assembled interior node count."""
        c, q, m, end = self.coefficients(E)
        c = c[: end + 1]
        psi_l, _ = _sweep_left(c, self.level.lam * self.h)
        decay = math.sqrt(max(q[end], 0.0))
        psi_r, _ = _sweep_right(c, decay * self.h, self.wall)
        scale_l = max(abs(psi_l[m - 1]), abs(psi_l[m]), abs(psi_l[m + 1]), 1e-300)
        scale_r = max(abs(psi_r[m - 1]), abs(psi_r[m]), abs(psi_r[m + 1]), 1e-300)
        det = (psi_l[m + 1] * psi_r[m] - psi_r[m + 1] * psi_l[m]) / (scale_l * scale_r)

        nodes = 0
        left_part = psi_l[: m + 1]
        nodes += int(np.count_nonzero(left_part[:-1] * left_part[1:] < 0.0))
        right_part = psi_r[m:]
        nodes += int(np.count_nonzero(right_part[:-1] * right_part[1:] < 0.0))
        return det, nodes


def numerov_eigenvalue(p, level, e_bracket, cfg=DEFAULT_SHOOTING):
    """Eigenvalue of the transformed radial equation inside ``e_bracket``.

    The bracket must straddle exactly the requested level: the node count
    of the left-shot solution is <= n_r at the lower end and > n_r at the
    upper end.  Refinement is bisection on the log-derivative matching
    determinant; the converged eigenfunction must show exactly n_r
    interior nodes.
    """
    e_lo, e_hi = float(e_bracket[0]), float(e_bracket[1])
    if not e_lo < e_hi:
        raise BracketMiss("empty energy bracket")
    ws = _Workspace(p, level, e_lo, e_hi, cfg)
    n_r = level.n_r
    c_lo = ws.node_count(e_lo)
    c_hi = ws.node_count(e_hi)
    if c_lo > n_r or c_hi <= n_r:
        raise BracketMiss(
            f"bracket node counts ({c_lo}, {c_hi}) do not straddle n_r = {n_r}")

    # bisect on the count until only the requested level remains inside
    lo, hi = e_lo, e_hi
    while hi - lo > 1e-3 * max(abs(lo), abs(hi), 1e-6):
        mid = 0.5 * (lo + hi)
        if ws.node_count(mid) <= n_r:
            lo = mid
        else:
            hi = mid

    det_lo, _ = ws.mismatch(lo)
    det_hi, _ = ws.mismatch(hi)
    if det_lo == 0.0:
        return lo
    if det_hi == 0.0:
        return hi
    if det_lo * det_hi > 0.0:
        # determinant normalisation degenerate; fall back to the node-count
        # transition, which pins the same eigenvalue
        while hi - lo > 1e-13 * max(abs(lo), abs(hi)):
            mid = 0.5 * (lo + hi)
            if ws.node_count(mid) <= n_r:
                lo = mid
            else:
                hi = mid
        e_star = 0.5 * (lo + hi)
    else:
        for _ in range(cfg.max_iter):
            mid = 0.5 * (lo + hi)
            if hi - lo <= cfg.tol_rel * max(abs(mid), 1e-300):
                break
            det_mid, _ = ws.mismatch(mid)
            if det_mid == 0.0:
                lo = hi = mid
                break
            if det_mid * det_lo < 0.0:
                hi = mid
            else:
                lo, det_lo = mid, det_mid
        e_star = 0.5 * (lo + hi)

    _, nodes = ws.mismatch(e_star)
    if nodes != n_r:
        raise NodeCountMismatch(
            f"converged eigenfunction has {nodes} interior nodes, expected {n_r}")
    return e_star


def bracket_bound_state(p, level, cfg=DEFAULT_SHOOTING, e_hint=None):
    """Find an energy bracket whose node counts straddle the level.

    Scans downward/upward by doubling from a characteristic scale (or the
    supplied hint); the continuum threshold caps decaying wells.
    """
    from .potentials import PowerLaw, Quarkonium, ScreenedCoulomb

    if isinstance(p, ScreenedCoulomb):
        e_top, e_bot = 0.0, -1.0
    elif isinstance(p, PowerLaw) and p.mu < 0:
        e_top, e_bot = -1e-9 * abs(p.b) ** (2.0 / (2.0 + p.mu)), -1.0
    elif isinstance(p, Quarkonium):
        e_bot, e_top = -1.0, 1.0
    else:
        e_bot, e_top = 1e-9 * p.reference_energy(), 4.0 * p.reference_energy()
    if e_hint is not None:
        e_top = max(e_top, e_hint * 2.0 if e_hint > 0 else e_hint * 0.5)
        e_bot = min(e_bot, e_hint * 2.0 if e_hint < 0 else e_hint * 0.5)

    n_r = level.n_r
    ws_probe = lambda a, b: _Workspace(p, level, a, b, cfg)

    for _ in range(80):
        ws = ws_probe(e_bot, e_top)
        if ws.node_count(e_top) > n_r:
            break
        if isinstance(p, (ScreenedCoulomb,)) or (isinstance(p, PowerLaw) and p.mu < 0):
            raise BracketMiss(f"well holds no level with n_r = {n_r} in this channel")
        e_top = e_top * 2.0 + 1.0
    else:
        raise BracketMiss("cannot push the upper bracket high enough")

    for _ in range(80):
        ws = ws_probe(e_bot, e_top)
        if ws.node_count(e_bot) <= n_r:
            break
        if (isinstance(p, PowerLaw) and p.mu > 0) or isinstance(p, HardWall):
            e_bot *= 0.25
        elif e_bot < 0:
            e_bot *= 4.0
        else:
            e_bot = -1.0
    else:
        raise BracketMiss("cannot push the lower bracket low enough")
    return e_bot, e_top


def solve_bound_state(p, level, cfg=DEFAULT_SHOOTING, e_hint=None):
    """Convenience wrapper: bracket by node counting, then refine."""
    bracket = bracket_bound_state(p, level, cfg, e_hint=e_hint)
    return numerov_eigenvalue(p, level, bracket, cfg)
