"""Central potential families and the energy-dependent geometry of the
effective radial function.

Units are natural (hbar = m = 1) throughout.  Every family provides the
potential V(r) and the logarithmic convexity index

    kappa(r) = 1 + r V''(r) / V'(r),

which is constant (equal to the exponent) for pure power laws; nothing
downstream needs more of a potential.  The central derived object is

    W(E, rho) = 2 e^(2 rho) (E - V(e^rho)),     rho = ln r,

whose single maximum fixes the amplitude A = sqrt(max W) and its
location r_m.  ``analyze_slice`` packages it as an ``EnergySlice``, whose
``r_t`` and ``kappa_at_rm`` are lazy (computed on first use).

A potential keeps every slice analysed on it: ``p.slice_at(E)`` analyses
each exact float E once for the life of p (about 1 KB a slice, moments
included), and ``p.held_energies()`` is a live view of the energies held.
A slice is a deterministic function of (p, E), so what p already holds
changes no slice; a new ``parse_potential`` starts empty.  The spectrum
solver, the transform profile, the sign theorems and the diagram all take
their slices from there; ``analyze_slice`` itself is the uncached
primitive, which the oracle calls directly.

``W``, ``V`` and the screenings' ``g`` keep a float a float (the point-wise
root and maximum searches build no 0-d ndarray) and turn anything else into
an ndarray.  Both paths give the same bits, which lets the quadratures
evaluate W on arrays of nodes: ``+ - * /`` are IEEE-exact either way, and
each ``exp``, ``log`` and ``power`` is a numpy ufunc on both paths, which
rounds a float as it rounds an array element.  ``math.exp`` and Python's
``**`` (libm's pow) would round differently in a few per cent of inputs.
"""

from __future__ import annotations

import math
import threading
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.integrate import solve_bvp
from scipy.interpolate import BPoly, CubicSpline, PchipInterpolator
from scipy.optimize import brentq

from .errors import MultipleMaxima, NoClassicalRegion, NumericsError, PotentialError

__all__ = [
    "Potential",
    "PowerLaw",
    "ScreenedCoulomb",
    "Quarkonium",
    "HardWall",
    "Tabulated",
    "EnergySlice",
    "parse_potential",
    "analyze_slice",
    "tf_screening",
    "tf_initial_slope",
]


def _point(x):
    """A float (a numpy float64 too) as a Python float, else a float ndarray."""
    return float(x) if isinstance(x, float) else np.asarray(x, dtype=float)


# --------------------------------------------------------------------------
# screening functions g(r) for -Z g(r) / r wells
# --------------------------------------------------------------------------


class Screening:
    """Interface for screening profiles: g(0) = 1, g > 0, dg/dr < 0."""

    kind = "abstract"

    def g(self, r):
        raise NotImplementedError

    def dg(self, r):
        raise NotImplementedError

    def d2g(self, r):
        raise NotImplementedError

    def convexity_term(self, r):
        """g'' r^2 / (g' r - g), which fixes kappa = -1 + convexity_term;
        a screening with a closed form overrides it instead of dg, d2g."""
        r = np.asarray(r, dtype=float)
        return self.d2g(r) * r**2 / (self.dg(r) * r - self.g(r))


class ExponentialScreening(Screening):
    """g(r) = exp(-r), the Yukawa-type profile."""

    kind = "exp"

    def g(self, r):
        return np.exp(-_point(r))

    def convexity_term(self, r):
        # the exponential cancels, avoiding 0/0 underflow at large radii
        r = np.asarray(r, dtype=float)
        return -r * r / (1.0 + r)


class InversePowerScreening(Screening):
    """g(r) = (1 + r)^-k; k = 2.5 is a good model of self-consistent
    atomic fields."""

    def __init__(self, kind, k):
        self.kind = kind
        self.k = k

    def g(self, r):
        return np.power(1.0 + _point(r), -self.k)

    def dg(self, r):
        return -self.k * (1.0 + np.asarray(r, dtype=float)) ** -(self.k + 1.0)

    def d2g(self, r):
        return self.k * (self.k + 1.0) * (1.0 + np.asarray(r, dtype=float)) ** -(self.k + 2.0)


# --------------------------------------------------------------------------
# Thomas-Fermi screening: Phi'' = Phi^(3/2)/sqrt(x), Phi(0)=1, Phi(inf)=0
# --------------------------------------------------------------------------

_TF_X0 = 1e-6          # series is used below this point
_TF_X_TABLE = 1.0e4    # dense table extends to here; 144/x^3 beyond
_TF_HORIZON = 1.0e6    # far-field condition x Phi' = -3 Phi is imposed here
_TF_LOCK = threading.Lock()
_TF_SOLUTION = None


def _tf_series(x, slope):
    """Small-x expansion of the screening function and its derivative."""
    x = _point(x)
    sx = np.sqrt(x)
    phi = (1.0 + slope * x + (4.0 / 3.0) * x * sx + 0.4 * slope * np.power(x, 2) * sx
           + np.power(x, 3) / 3.0)
    dphi = (slope + 2.0 * sx + slope * x * sx + np.power(x, 2))
    return phi, dphi


def _tf_rhs(t, y):
    """The TF equation in t = ln x for u = ln Phi and v = x Phi' / Phi."""
    u, v = y
    return np.vstack((v, v - v * v + np.exp(1.5 * t + 0.5 * u)))


def _tf_series_slope(dphi):
    """The slope whose small-x series has derivative ``dphi`` at x0."""
    return (dphi - 2.0 * math.sqrt(_TF_X0) - _TF_X0**2) / (1.0 + _TF_X0**1.5)


def _tf_bc(ya, yb):
    # left: the small-x series, with the slope eliminated through Phi'(x0);
    # right: the 144/x^3 tail, whose logarithmic derivative is -3
    phi = math.exp(ya[0])
    slope = _tf_series_slope(ya[1] * phi / _TF_X0)
    return np.array([phi - float(_tf_series(_TF_X0, slope)[0]), yb[1] + 3.0])


def _tf_minus_dphi(logphi, t):
    """-Phi'(x) = int_x^inf Phi^(3/2) x^(-1/2) dx at x = e^t, integrated
    on the interpolant ``logphi`` of ln Phi.

    Reading Phi' from v = x Phi'/Phi instead would divide the collocation's
    absolute error by x (~1e-7 relative at x0); this integral of a positive
    integrand has no such cancellation, and at x -> 0 it gives the slope.
    """
    # Gauss-Legendre on every interval between the nodes and the t, of
    # Phi^(3/2) x^(1/2) dt = Phi'' dx
    g, w = np.polynomial.legendre.leggauss(3)
    grid = np.union1d(logphi.x, t)
    half = 0.5 * np.diff(grid)[:, None]
    tt = (half * g + 0.5 * (grid[:-1] + grid[1:])[:, None]).ravel()
    pieces = (half * np.exp(1.5 * logphi(tt) + 0.5 * tt).reshape(half.size, -1)) @ w
    # beyond the horizon the integral is -Phi'(X) = 3 Phi(X) / X
    far = 3.0 * math.exp(logphi(grid[-1]) - grid[-1])
    right = far + np.append(np.cumsum(pieces[::-1])[::-1], 0.0)
    return right[np.searchsorted(grid, t)]


def _quintic_hermite(x, y, dy, d2y):
    """C2 piecewise quintic matching y, y' and y'' at every node.

    Kept in Bernstein form: converted to the power basis it loses enough
    digits to cancellation to show in finite-difference curvatures.
    """
    h = np.diff(x)
    c = np.array([y[:-1],
                  y[:-1] + h * dy[:-1] / 5.0,
                  y[:-1] + 2.0 * h * dy[:-1] / 5.0 + h * h * d2y[:-1] / 20.0,
                  y[1:] - 2.0 * h * dy[1:] / 5.0 + h * h * d2y[1:] / 20.0,
                  y[1:] - h * dy[1:] / 5.0,
                  y[1:]])
    return BPoly(c, x)


class _TFSolution:
    """Dense monotone table of the screening function from one collocation
    solve of the log-variable boundary-value problem."""

    def __init__(self):
        # log variables keep the residual relative: solve_bvp's tolerance
        # is absolute on a residual scaled by 1 + |f|, and Phi itself falls
        # to ~1e-7 at x = 1e3.  Sommerfeld's (1 + y)^(-3/lam) approximation,
        # y = (x / 144^(1/3))^lam, is the first guess.
        t = np.linspace(math.log(_TF_X0), math.log(_TF_HORIZON), 400)
        lam = 0.772
        y = (np.exp(t) / 144.0 ** (1.0 / 3.0)) ** lam
        guess = np.vstack((-3.0 / lam * np.log1p(y), -3.0 * y / (1.0 + y)))
        sol = solve_bvp(_tf_rhs, _tf_bc, t, guess, tol=1e-10, max_nodes=100000)
        if not sol.success:
            raise NumericsError(f"Thomas-Fermi collocation failed: {sol.message}")
        # the collocation's own interpolant is a C1 cubic whose kinks in
        # u'' would show in finite-difference curvatures of W; a quintic
        # Hermite that carries the equation's u'' at every node is C2
        logphi = _quintic_hermite(sol.x, *sol.y, _tf_rhs(sol.x, sol.y)[1])
        xs = np.geomspace(_TF_X0, _TF_X_TABLE, 26001)
        ts = np.log(xs)
        u = logphi(ts)
        mdphi = _tf_minus_dphi(logphi, ts)
        if np.any(np.diff(u) >= 0):
            raise NumericsError("screening table is not strictly decreasing")
        self.slope = _tf_series_slope(-float(mdphi[0]))
        # C2 splines keep finite-difference second derivatives of W clean;
        # monotonicity is asserted on a dense probe of the fitted curve
        self._logphi = CubicSpline(ts, u, extrapolate=False)
        self._logmdphi = CubicSpline(ts, np.log(mdphi), extrapolate=False)
        probe = np.linspace(ts[0], ts[-1], 20001)
        if np.any(np.diff(self._logphi(probe)) >= 0):
            raise NumericsError("interpolated screening table is not monotone")
        self.x_min = float(xs[0])
        self.x_max = float(xs[-1])
        # inverse-cube asymptote, anchored continuously at the table edge
        # (the pure 144/x^3 form overshoots by ~1% there)
        self.tail_coeff = math.exp(u[-1]) * self.x_max**3
        # the spline's arrays (scipy's properties cost ~2 us a read); its
        # log-radii are uniform up to rounding, so an index guess is near
        self._ts, self._c = self._logphi.x, self._logphi.c
        self._t0 = float(ts[0])
        self._per_step = (ts.size - 1) / float(ts[-1] - ts[0])

    def _logphi_at(self, t):
        """``self._logphi(t)`` bit for bit at one float t in the table: PPoly's
        interval (ts[i] <= t < ts[i+1], the last at the right end) and its
        order of summation."""
        ts, c = self._ts, self._c
        last = ts.size - 2
        i = min(int((t - self._t0) * self._per_step), last)
        while i > 0 and ts.item(i) > t:
            i -= 1
        while i < last and ts.item(i + 1) <= t:
            i += 1
        s = t - ts.item(i)
        res, z = 0.0, 1.0
        for k in (3, 2, 1, 0):
            res = res + c.item(k, i) * z
            z *= s
        return res

    def phi(self, x):
        if isinstance(x, float):
            # the three regions below; a NaN falls through to the tail
            if x < self.x_min:
                return _tf_series(x, self.slope)[0]
            if x <= self.x_max:
                return np.exp(self._logphi_at(float(np.log(x))))
            return self.tail_coeff / np.power(x, 3)
        x = np.asarray(x, dtype=float)
        out = np.empty_like(x)
        tiny = x < self.x_min
        big = x > self.x_max
        mid = ~(tiny | big)
        if np.any(tiny):
            out[tiny] = _tf_series(x[tiny], self.slope)[0]
        if np.any(mid):
            out[mid] = np.exp(self._logphi(np.log(x[mid])))
        if np.any(big):
            out[big] = self.tail_coeff / x[big] ** 3
        return out

    def dphi(self, x):
        x = np.asarray(x, dtype=float)
        out = np.empty_like(x)
        tiny = x < self.x_min
        big = x > self.x_max
        mid = ~(tiny | big)
        if np.any(tiny):
            out[tiny] = _tf_series(x[tiny], self.slope)[1]
        if np.any(mid):
            out[mid] = -np.exp(self._logmdphi(np.log(x[mid])))
        if np.any(big):
            out[big] = -3.0 * self.tail_coeff / x[big] ** 4
        return out


def _tf_solution():
    global _TF_SOLUTION
    with _TF_LOCK:
        if _TF_SOLUTION is None:
            _TF_SOLUTION = _TFSolution()
        return _TF_SOLUTION


def tf_screening(x):
    """Thomas-Fermi screening function at scaled radius x >= 0."""
    scalar = np.isscalar(x)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(x < 0):
        raise PotentialError("scaled radius must be >= 0")
    out = np.where(x == 0.0, 1.0, _tf_solution().phi(np.maximum(x, 1e-300)))
    return float(out[0]) if scalar else out


def tf_initial_slope():
    """Initial slope of the screening function at the origin."""
    return _tf_solution().slope


class ThomasFermiScreening(Screening):
    """g(r) = Phi(r / b) with the standard length scale b ~ 0.8853 Z^(-1/3)."""

    kind = "tf"

    def __init__(self, Z):
        self.b = 0.5 * (3.0 * math.pi / 4.0) ** (2.0 / 3.0) * Z ** (-1.0 / 3.0)

    def g(self, r):
        return _tf_solution().phi(_point(r) / self.b)

    def dg(self, r):
        return _tf_solution().dphi(np.asarray(r, dtype=float) / self.b) / self.b

    def d2g(self, r):
        # second derivative straight from the defining equation
        x = np.asarray(r, dtype=float) / self.b
        phi = _tf_solution().phi(x)
        return phi * np.sqrt(phi / x) / self.b**2


# kind -> screening of a well of charge Z
_SCREENINGS = {
    "exp": lambda Z: ExponentialScreening(),
    "inv2": lambda Z: InversePowerScreening("inv2", 2.0),
    "inv25": lambda Z: InversePowerScreening("inv25", 2.5),
    "tf": ThomasFermiScreening,
}


# --------------------------------------------------------------------------
# potential families
# --------------------------------------------------------------------------


class Potential:
    """Base class; concrete families implement V and kappa (vectorised)."""

    family = "abstract"
    # True when V has no length scale that the energy could probe, so E
    # only rescales W and the slope phi (like kappa) does not depend on E
    scale_free = False
    # True when V comes from interpolated data, whose second derivatives
    # are finite differences
    interpolated = False
    # True when the bound levels accumulate at the ceiling of
    # energy_window(), so that any cap at or above it holds infinitely many
    levels_accumulate = False
    # k in E - floor proportional to N_1(E)^k, on a scale-free well whose
    # energy_window() has a floor and no ceiling; None where the levels
    # are bracketed roots
    energy_exponent = None

    def V(self, r):
        raise NotImplementedError

    def kappa(self, r):
        """Logarithmic convexity index 1 + r V''/V'."""
        raise NotImplementedError

    def W(self, E, rho):
        """Effective radial function 2 r^2 (E - V(r)) at rho = ln r."""
        r = np.exp(_point(rho))
        return 2.0 * r * r * (E - self.V(r))

    def asymptotic_value(self):
        """sup of V at large radius (may be +inf for confining wells)."""
        raise NotImplementedError

    def reference_energy(self):
        """A representative energy at which the well certainly has states."""
        raise NotImplementedError

    def energy_window(self):
        """(floor, ceiling) of the bound-state energies; None where open.

        The default suits wells that are Coulomb-like at the origin and
        confining at infinity, whose spectrum spans the whole energy axis.
        """
        return None, None

    def energy_scale(self):
        """Natural energy unit of the well; a bracket search below a
        threshold ceiling starts one unit deep."""
        return 1.0

    def default_energy_grid(self):
        """A deep-to-shallow energy grid for diagram curves."""
        e0 = self.reference_energy()
        return [e0 * 2.0 ** (k - 6) for k in range(13)]

    def domain(self):
        """(r_min, r_max) where the potential is defined; (0, inf) unless
        interpolated from a finite table."""
        return 0.0, math.inf

    def boundary_slice(self, E):
        """The slice at E where W peaks on the boundary; None if inside."""
        return None

    def slice_at(self, E):
        """The slice of this potential at E, analysed once per exact float
        and kept on the potential, so every later call at E, from any
        solve, profile or curve, finds its moments already integrated.
        Threads that ask for a new E at once may each analyse it; the
        slices they get are equal, and the last one stays."""
        s = self._slices.get(E)
        if s is None:
            s = self._slices[E] = analyze_slice(self, E)
        return s

    def held_energies(self):
        """A live view of the energies whose slices the potential holds."""
        return self._slices.keys()

    @cached_property
    def _slices(self):
        # in the instance __dict__, which a frozen dataclass still lets a
        # cached_property fill; not a field, so equality ignores it
        return {}

    def _check_scales(self):
        """Raise PotentialError unless the family's energy scales are finite."""
        try:  # 1/R^2 or Z^2 may divide by zero or overflow
            scales = (self.reference_energy(), self.energy_scale(), *self.energy_window())
            finite = all(math.isfinite(x) for x in scales if x is not None)
        except ArithmeticError:
            finite = False
        if not finite:
            raise PotentialError(f"{self.spec_string()}: energy scale is not a finite number")

    def spec_string(self):
        raise NotImplementedError

    def __repr__(self):
        return f"{type(self).__name__}({self.spec_string()!r})"


@dataclass(frozen=True)
class PowerLaw(Potential):
    """V(r) = b r^mu with mu > -2 and b mu > 0 (attractive well)."""

    b: float
    mu: float
    family = "power"
    scale_free = True

    def __post_init__(self):
        if not self.mu > -2.0:
            raise PotentialError(f"mu must be > -2, got {self.mu}")
        if not self.b * self.mu > 0.0:
            raise PotentialError(f"b*mu must be > 0 for an attractive well, got b={self.b}, mu={self.mu}")
        self._check_scales()

    def V(self, r):
        return self.b * np.power(_point(r), self.mu)

    def kappa(self, r):
        r = np.asarray(r, dtype=float)
        return self.mu + 0.0 * r if r.ndim else float(self.mu)

    def asymptotic_value(self):
        return math.inf if self.mu > 0 else 0.0

    def reference_energy(self):
        # r_t = e^mu for mu -> 0 keeps the turning point at sane radii
        return self.b * math.exp(self.mu) if self.mu > 0 else 0.5 * self.b

    def energy_window(self):
        return (0.0, None) if self.mu > 0 else (None, 0.0)

    @property
    def levels_accumulate(self):
        # a tail falling off slower than r^-2 binds infinitely many levels
        return self.mu < 0

    @property
    def energy_exponent(self):
        # N_1 grows as E^((mu+2)/(2 mu)); a well open at the threshold
        # (mu < 0) keeps the bracketed root, whose bits the Coulomb -1/32
        # ties of the 4-decimal output hang on
        return 2.0 * self.mu / (self.mu + 2.0) if self.mu > 0 else None

    def energy_scale(self):
        return abs(self.b) ** (2.0 / (2.0 + self.mu))

    def spec_string(self):
        return f"power:b={self.b:g},mu={self.mu:g}"


@dataclass(frozen=True)
class ScreenedCoulomb(Potential):
    """V(r) = -Z g(r) / r with g(0) = 1, g > 0 and g decreasing."""

    Z: float
    screening: Screening
    family = "screened"

    def __post_init__(self):
        if not self.Z > 0:
            raise PotentialError(f"Z must be > 0, got {self.Z}")
        self._check_scales()

    def V(self, r):
        r = _point(r)
        return -self.Z * self.screening.g(r) / r

    def kappa(self, r):
        r = np.asarray(r, dtype=float)
        return -1.0 + self.screening.convexity_term(r)

    def asymptotic_value(self):
        return 0.0

    def reference_energy(self):
        return 0.0

    def energy_window(self):
        return -10.0 * self.Z**2, 0.0

    def default_energy_grid(self):
        return [-self.Z**2 * 0.5 * 2.0 ** (-k) for k in range(18)] + [0.0]

    def spec_string(self):
        return f"screened:kind={self.screening.kind},Z={self.Z:g}"


@dataclass(frozen=True)
class Quarkonium(Potential):
    """V(r) = B (-alpha / r + (1 - alpha) r^delta)."""

    alpha: float
    delta: float
    B: float
    family = "quark"

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise PotentialError(f"alpha must lie in (0, 1), got {self.alpha}")
        if not self.delta > 0.0:
            raise PotentialError(f"delta must be > 0, got {self.delta}")
        if not self.B > 0.0:
            raise PotentialError(f"B must be > 0, got {self.B}")

    def V(self, r):
        r = _point(r)
        return self.B * (-self.alpha / r + (1.0 - self.alpha) * np.power(r, self.delta))

    def kappa(self, r):
        # (-1 + Q delta^2) / (1 + Q delta), Q = (1-alpha)/alpha * r^(delta+1);
        # runs from -1 at the origin to delta at infinity
        r = np.asarray(r, dtype=float)
        q = (1.0 - self.alpha) / self.alpha * r ** (self.delta + 1.0)
        return (-1.0 + q * self.delta**2) / (1.0 + q * self.delta)

    def asymptotic_value(self):
        return math.inf

    def reference_energy(self):
        return 0.0

    def default_energy_grid(self):
        return [-6.0 * self.B * 2.0 ** (-k) for k in range(12)] + \
               [self.B * k / 3.0 for k in range(1, 13)]

    def spec_string(self):
        return f"quark:alpha={self.alpha:g},delta={self.delta:g},B={self.B:g}"


@dataclass(frozen=True)
class HardWall(Potential):
    """V = 0 for r < R with an impenetrable wall at R."""

    R: float
    family = "wall"
    scale_free = True
    energy_exponent = 2.0  # N_1 = A chi_1 with A = sqrt(2E) R

    def __post_init__(self):
        if not self.R > 0:
            raise PotentialError(f"R must be > 0, got {self.R}")
        self._check_scales()

    def V(self, r):
        r = np.asarray(r, dtype=float)
        out = np.where(r <= self.R, 0.0, np.inf)
        return float(out) if out.ndim == 0 else out

    def kappa(self, r):
        raise PotentialError("kappa undefined for a hard wall (V' = 0 inside)")

    def boundary_slice(self, E):
        if E <= 0:
            raise NoClassicalRegion("a hard-wall well has no states at E <= 0")
        a = math.sqrt(2.0 * E) * self.R
        if not math.isfinite(a):  # 2E overflows above ~9e307
            raise NumericsError(f"{self.spec_string()}: amplitude sqrt(2E) R at E = {E:g} "
                                "is not a finite number")
        return EnergySlice(p=self, E=E, r_m=self.R, A=a, boundary_max=True)

    def asymptotic_value(self):
        return math.inf

    def reference_energy(self):
        return 1.0 / self.R**2

    def energy_window(self):
        return 0.0, None

    def spec_string(self):
        return f"wall:R={self.R:g}"


class Tabulated(Potential):
    """Potential interpolated from an ascending (r, V) table.

    Monotone cubic interpolation for V; first and second derivatives, and
    from them kappa, by centered differences of the interpolant, which
    preserves the sign structure of the convexity index.
    """

    family = "table"
    interpolated = True

    def __init__(self, r, v, source="<memory>"):
        r = np.asarray(r, dtype=float)
        v = np.asarray(v, dtype=float)
        if r.ndim != 1 or r.size < 8:
            raise PotentialError("tabulated potential needs at least 8 points")
        if np.any(np.diff(r) <= 0):
            raise PotentialError("tabulated radii must be strictly increasing")
        if r[0] <= 0:
            raise PotentialError("tabulated radii must be positive")
        self.r_min = float(r[0])
        self.r_max = float(r[-1])
        self._v_last = float(v[-1])
        self._interp = PchipInterpolator(r, v, extrapolate=False)
        self.source = source

    def _check(self, r):
        r = np.asarray(r, dtype=float)
        if np.any(r < self.r_min * (1.0 - 1e-12)) or np.any(r > self.r_max * (1.0 + 1e-12)):
            raise PotentialError(
                f"radius outside tabulated range [{self.r_min:g}, {self.r_max:g}]")
        return np.clip(r, self.r_min, self.r_max)

    def V(self, r):
        return self._interp(self._check(r))

    def dV(self, r):
        r = self._check(r)
        h = 1e-5 * np.maximum(np.abs(r), self.r_min)
        lo = np.maximum(r - h, self.r_min)
        hi = np.minimum(r + h, self.r_max)
        return (self._interp(hi) - self._interp(lo)) / (hi - lo)

    def d2V(self, r):
        r = self._check(r)
        h = 1e-3 * np.maximum(np.abs(r), self.r_min)
        rc = np.clip(r, self.r_min + h, self.r_max - h)
        return (self._interp(rc + h) - 2.0 * self._interp(rc) + self._interp(rc - h)) / h**2

    def kappa(self, r):
        dv = self.dV(r)
        if np.any(np.asarray(dv) == 0):
            raise PotentialError("kappa undefined where V'(r) = 0")
        return 1.0 + np.asarray(r, dtype=float) * self.d2V(r) / dv

    def asymptotic_value(self):
        return self._v_last

    def reference_energy(self):
        vals = self._interp(np.geomspace(self.r_min, self.r_max, 64))
        return 0.5 * float(np.min(vals)) if np.min(vals) < 0 else 2.0 * float(np.max(vals))

    def domain(self):
        return self.r_min, self.r_max

    def spec_string(self):
        return f"table:path={self.source}"


def load_table(path):
    """Read a two-column whitespace table (r, V); '#' starts a comment."""
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("error", message=".*input contained no data",
                                    category=UserWarning)
            data = np.loadtxt(path, comments="#", ndmin=2)
    except OSError as exc:
        raise PotentialError(f"cannot read table file: {exc}") from exc
    except ValueError as exc:
        raise PotentialError(f"malformed table file {path}: {exc}") from exc
    except UserWarning as exc:
        raise PotentialError(f"table file {path} holds no data") from exc
    if data.shape[1] != 2:
        raise PotentialError(f"table file {path} must have exactly two columns")
    return Tabulated(data[:, 0], data[:, 1], source=str(path))


# --------------------------------------------------------------------------
# mini-language parser
# --------------------------------------------------------------------------

_FAMILY_KEYS = {
    "power": {"b", "mu"},
    "screened": {"kind", "Z"},
    "quark": {"alpha", "delta", "B"},
    "wall": {"R"},
    "table": {"path"},
}


def parse_potential(spec):
    """Parse a potential from the mini-language, e.g. ``power:b=1,mu=2``.

    Forms: ``power:b=<f>,mu=<f>`` | ``screened:kind=exp|inv2|inv25|tf,Z=<f>``
    | ``quark:alpha=<f>,delta=<f>,B=<f>`` | ``wall:R=<f>`` | ``table:path=<file>``.
    """
    if not isinstance(spec, str) or ":" not in spec:
        raise PotentialError(f"malformed potential spec {spec!r}: expected 'family:key=value,...'")
    family, _, rest = spec.partition(":")
    family = family.strip().lower()
    if family not in _FAMILY_KEYS:
        raise PotentialError(f"unknown potential family {family!r}")
    kv = {}
    for item in rest.split(","):
        if "=" not in item:
            raise PotentialError(f"malformed parameter {item!r} in {spec!r}")
        key, _, value = item.partition("=")
        kv[key.strip()] = value.strip()
    expected = _FAMILY_KEYS[family]
    if set(kv) != expected:
        raise PotentialError(
            f"{family} potential takes exactly the keys {sorted(expected)}, got {sorted(kv)}")

    def fval(key):
        try:
            return float(kv[key])
        except ValueError as exc:
            raise PotentialError(f"parameter {key}={kv[key]!r} is not a number") from exc

    if family == "power":
        return PowerLaw(b=fval("b"), mu=fval("mu"))
    if family == "screened":
        kind = kv["kind"].lower()
        if kind not in _SCREENINGS:
            raise PotentialError(f"unknown screening kind {kind!r}; use exp|inv2|inv25|tf")
        Z = fval("Z")
        if not Z > 0:
            raise PotentialError(f"Z must be > 0, got {Z}")
        return ScreenedCoulomb(Z=Z, screening=_SCREENINGS[kind](Z))
    if family == "quark":
        return Quarkonium(alpha=fval("alpha"), delta=fval("delta"), B=fval("B"))
    if family == "wall":
        return HardWall(R=fval("R"))
    return load_table(kv["path"])


@dataclass(frozen=True)
class EnergySlice:
    """All local geometry of W at one energy E of the potential p.

    ``r_m`` is the location of the maximum of W, ``A`` the square root of
    that maximum.  Computed on first use: ``r_t``, the outer classical
    turning point of V (``inf`` at the continuum threshold of a decaying
    tail), and ``kappa_at_rm``, the convexity index at r_m; a hard wall's
    boundary maximum has r_t = r_m and kappa_at_rm = inf.
    """

    p: Potential = field(compare=False, repr=False)
    E: float
    r_m: float
    A: float
    boundary_max: bool = False
    # reduced moments integrated on this slice, keyed by d, and their flank
    # geometry, keyed by the tail cut (quadrature.reduced_moment)
    _moments: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _flanks: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.A > 0:
            raise NumericsError("slice amplitude must be positive")

    @cached_property
    def r_t(self):
        if self.boundary_max:
            return self.r_m
        r_t = _turning_point_of_v(self.p, self.E, self.r_m)
        if math.isfinite(r_t) and not self.r_m < r_t * (1.0 + 1e-9):
            raise NumericsError("W maximum must not lie beyond the turning point")
        return r_t

    @cached_property
    def kappa_at_rm(self):
        return math.inf if self.boundary_max else float(self.p.kappa(self.r_m))


_GRID_POINTS = 4097
_MAX_DECADES = 40.0


def _slice_window(p):
    r_lo, r_hi = p.domain()
    if r_lo > 0.0 and math.isfinite(r_hi):
        return math.log(r_lo), math.log(r_hi), False
    return -9.0 * math.log(10.0), 9.0 * math.log(10.0), True


def _locate_maximum(p, E):
    """Coarse log-grid bracket of the maximum of W, expanding as needed."""
    lo, hi, expandable = _slice_window(p)
    limit = _MAX_DECADES * math.log(10.0)
    while True:
        rho = np.linspace(lo, hi, _GRID_POINTS)
        with np.errstate(over="ignore", invalid="ignore"):
            w = np.asarray(p.W(E, rho))
        w = np.where(np.isnan(w), -np.inf, w)
        if not np.any(w > 0):
            if expandable and hi < limit:
                width = hi - lo
                lo = max(lo - 0.5 * width, -limit)
                hi = min(hi + 0.5 * width, limit)
                continue
            raise NoClassicalRegion(
                f"W(E={E:g}, rho) <= 0 everywhere; no classically allowed region")
        i = int(np.argmax(w))
        if expandable and i < 3 and lo > -limit:
            lo -= 20.0
            continue
        if expandable and i > _GRID_POINTS - 4 and hi < limit:
            hi += 20.0
            continue
        if i < 1 or i > _GRID_POINTS - 2:
            raise NoClassicalRegion(
                "no interior maximum of W within the admissible radius range "
                "(energy at or above the continuum threshold for this family)")
        return rho, w, i


def _reject_multiple_maxima(rho, w, i_best):
    wmax = w[i_best]
    interior = np.flatnonzero((w[1:-1] > w[:-2]) & (w[1:-1] >= w[2:])) + 1
    significant = [j for j in interior if w[j] > 1e-8 * wmax]
    for j in significant:
        if j == i_best:
            continue
        a, b = sorted((j, i_best))
        valley = np.min(w[a:b + 1])
        floor = min(w[j], wmax)
        if valley < floor * (1.0 - 1e-9):
            raise MultipleMaxima(
                f"two separated maxima of W near r={math.exp(rho[j]):.4g} "
                f"and r={math.exp(rho[i_best]):.4g}")


def _turning_point_of_v(p, E, r_m):
    """Outer root of V(r) = E, or inf when E reaches the asymptotic value."""
    v_inf = p.asymptotic_value()
    if math.isfinite(v_inf) and E >= v_inf:
        return math.inf
    r_hi = r_m
    f = lambda r: float(p.V(r)) - E
    upper = p.domain()[1]
    upper = upper if math.isfinite(upper) else None
    for _ in range(400):
        r_next = min(r_hi * 2.0, upper) if upper else r_hi * 2.0
        if f(r_next) > 0:
            return brentq(f, r_hi, r_next, rtol=1e-13, maxiter=200)
        if upper and r_next >= upper:
            raise PotentialError("turning point lies beyond the tabulated range")
        r_hi = r_next
    raise NumericsError("failed to bracket the outer turning point of V")


_GOLDEN_XTOL = 1e-11


def _golden_maximum(w_at, x, w):
    """Golden-section search for the maximum of ``w_at`` in the bracket
    ``x = (xa, xb, xc)`` with values ``w``, whose middle one tops both ends.

    This is the arithmetic of scipy's ``minimize_scalar(method="golden")``
    on -W, step for step: the same constant, updates and stop rule, so the
    same bits.  The bracket values come from the scan, and W is not
    evaluated again at xb.
    """
    x0, xb, x3 = (float(v) for v in x)
    wa, wb, wc = w
    if not (wb > wa and wb > wc):
        raise NumericsError("W has no strict maximum on the scan grid")
    g_r = 0.61803399  # scipy's rounded golden ratio conjugate
    g_c = 1.0 - g_r
    if abs(x3 - xb) > abs(xb - x0):
        x1, x2 = xb, xb + g_c * (x3 - xb)
        w1, w2 = wb, w_at(x2)
    else:
        x1, x2 = xb - g_c * (xb - x0), xb
        w1, w2 = w_at(x1), wb
    for _ in range(5000):
        if abs(x3 - x0) <= _GOLDEN_XTOL * (abs(x1) + abs(x2)):
            break
        if w2 > w1:
            x0, x1 = x1, x2
            x2 = g_r * x1 + g_c * x3
            w1, w2 = w2, w_at(x2)
        else:
            x3, x2 = x2, x1
            x1 = g_r * x2 + g_c * x0
            w2, w1 = w1, w_at(x1)
    return x1 if w1 > w2 else x2


def _stencil(p, E, x, h):
    """W at x - h, x and x + h, in one array call; a value that is not
    finite (an overflow of V) is a ``NumericsError``."""
    w_m, w_c, w_p = p.W(E, np.array((x - h, x, x + h))).tolist()
    if not (math.isfinite(w_m) and math.isfinite(w_c) and math.isfinite(w_p)):
        raise NumericsError(f"W(E={E:g}) overflows at its maximum near r={math.exp(x):.4g}")
    return w_m, w_c, w_p


def analyze_slice(p, E):
    """Locate the maximum of W at energy E; r_t and kappa wait for first use.

    The maximum is bracketed on a log grid, located by a golden-section
    search that reproduces scipy's bits (``_golden_maximum``) and polished
    by Newton steps on W', each on one 3-point array call of W.  A W that
    overflows at the maximum or its stencil is a ``NumericsError``.  A
    boundary maximum (the hard wall's) comes from the family.
    """
    if math.isnan(E):
        raise ValueError("energy must not be NaN")
    s = p.boundary_slice(E)
    if s is not None:
        return s

    rho, w, i = _locate_maximum(p, E)
    _reject_multiple_maxima(rho, w, i)
    with np.errstate(over="ignore", invalid="ignore"):
        rho_m = _golden_maximum(lambda x: float(p.W(E, x)), rho[i - 1:i + 2], w[i - 1:i + 2])

        # golden section localises only to ~sqrt(eps); a few Newton steps on W'
        # push the stationarity residual to the noise floor
        h = 1e-5 * max(1.0, abs(rho_m))
        w_m, w_c, w_p = _stencil(p, E, rho_m, h)
        for _ in range(8):
            d1 = (w_p - w_m) / (2.0 * h)
            d2 = (w_p - 2.0 * w_c + w_m) / (h * h)
            if d2 >= 0.0:
                break
            step = -d1 / d2
            if abs(step) > 0.1:
                break
            rho_m += step
            w_m, w_c, w_p = _stencil(p, E, rho_m, h)
            if abs(step) < 1e-13 * max(1.0, abs(rho_m)):
                break

    a2 = w_c
    if a2 <= 0:
        raise NoClassicalRegion("maximum of W is not positive")
    a = math.sqrt(a2)

    slope = (w_p - w_m) / (2.0 * h)
    if abs(slope) > 1e-8 * a2:
        raise NumericsError(f"stationarity check failed at the W maximum: |W'| = {abs(slope):.3g}")

    return EnergySlice(p=p, E=E, r_m=math.exp(rho_m), A=a)
