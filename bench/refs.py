"""Closed-form references the benchmark checks results against.

Each helper is independent of the teff package: spectra come from the
textbook formulas, and the Airy and Bessel zeros from scipy.special.
"""

from __future__ import annotations

import math

from scipy.optimize import brentq
from scipy.special import ai_zeros, betaln, jv


def coulomb_energy(Z, n_r, l, d):
    """V = -Z/r in d dimensions: E = -Z^2 / (2 (n_r + l + (d - 1)/2)^2)."""
    return -Z * Z / (2.0 * (n_r + l + 0.5 * (d - 1)) ** 2)


def oscillator_energy(b, n_r, l, d):
    """V = b r^2 in d dimensions: E = sqrt(2 b) (2 n_r + l + d/2)."""
    return math.sqrt(2.0 * b) * (2.0 * n_r + l + 0.5 * d)


def airy_zero(k):
    """k-th zero (k >= 1) of the Airy function Ai; all are negative."""
    return float(ai_zeros(k)[0][k - 1])


def linear_energy(b, n_r):
    """V = b r with l = 0 in d = 3: E = -a_(n_r+1) (b^2 / 2)^(1/3)."""
    return -airy_zero(n_r + 1) * (0.5 * b * b) ** (1.0 / 3.0)


def bessel_zero(nu, k):
    """k-th positive zero (k >= 1) of J_nu for real order nu >= 0.

    J_nu has no zero in (0, nu], and consecutive zeros are about pi
    apart, so a scan in steps of 0.05 from there sees every sign change.
    """
    step = 0.05
    a = max(nu, step)
    fa = jv(nu, a)
    found = 0
    while True:
        b = a + step
        fb = jv(nu, b)
        if fa == 0.0 or fa * fb < 0.0:
            found += 1
            if found == k:
                return a if fa == 0.0 else brentq(lambda x: jv(nu, x), a, b, xtol=1e-15,
                                                  maxiter=200)
        a, fa = b, fb


def wall_energy(R, n_r, l, d):
    """Hard wall of radius R: E = j_(lambda, n_r+1)^2 / (2 R^2), lambda = l + (d-2)/2."""
    j = bessel_zero(l + 0.5 * (d - 2), n_r + 1)
    return j * j / (2.0 * R * R)


def wall_chi(d):
    """chi_d of a hard wall: 1 / (d B(d/2, 1/2)), the same at every energy."""
    return 1.0 / (d * math.exp(betaln(0.5 * d, 0.5)))


def rel_dev(got, ref):
    return abs(got - ref) / abs(ref)
