import math

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import ai_zeros, jv

from teff import (
    BracketMiss,
    HardWall,
    PowerLaw,
    QuantumLevel,
    ShootingConfig,
    bracket_bound_state,
    exact_reference_spectrum,
    numerov_eigenvalue,
    parse_potential,
    solve_bound_state,
)


def _bessel_zero(nu, k):
    """k-th positive zero of J_nu; zeros are about pi apart, so a 0.1 scan
    separates them."""
    x = np.arange(0.1, (k + nu + 2.0) * math.pi, 0.1)
    f = jv(nu, x)
    i = np.flatnonzero(f[:-1] * f[1:] < 0.0)[k - 1]
    return brentq(lambda t: jv(nu, t), x[i], x[i + 1], xtol=1e-15, rtol=4 * np.finfo(float).eps)


class TestExactSpectra:
    def test_coulomb_values(self):
        assert exact_reference_spectrum("coulomb", 1.0, QuantumLevel(0, 0, 3)) == -0.5
        assert exact_reference_spectrum("coulomb", 2.0, QuantumLevel(0, 1, 4)) == \
            pytest.approx(-0.32)

    def test_oscillator_values(self):
        assert exact_reference_spectrum("oscillator", 0.5, QuantumLevel(1, 1, 3)) == \
            pytest.approx(4.5)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            exact_reference_spectrum("morse", 1.0, QuantumLevel(0, 0, 3))


class TestEigensolver:
    @pytest.mark.parametrize("d", [2, 3, 5])
    @pytest.mark.parametrize("n_r,l", [(0, 0), (1, 1), (2, 2), (2, 0), (0, 2)])
    def test_reference_reproduction(self, coulomb, oscillator, d, n_r, l):
        lvl = QuantumLevel(n_r, l, d)
        got = solve_bound_state(coulomb, lvl)
        assert got == pytest.approx(exact_reference_spectrum("coulomb", 1.0, lvl),
                                    rel=1e-5)
        got = solve_bound_state(oscillator, lvl)
        assert got == pytest.approx(exact_reference_spectrum("oscillator", 0.5, lvl),
                                    rel=1e-5)

    def test_hydrogen_2p(self, coulomb):
        assert solve_bound_state(coulomb, QuantumLevel(0, 1, 3)) == \
            pytest.approx(-0.125, abs=1e-6)

    def test_linear_well_airy(self):
        p = PowerLaw(b=1.0, mu=1.0)
        zeros = ai_zeros(2)[0]
        for n_r in range(2):
            exact = -float(zeros[n_r]) * 2.0 ** (-1.0 / 3.0)
            assert solve_bound_state(p, QuantumLevel(n_r, 0, 3)) == \
                pytest.approx(exact, abs=1e-5)

    def test_hard_wall_bessel(self):
        # l = 0 levels of the unit box are (n pi)^2 / 2
        wall = HardWall(R=1.0)
        for n_r in range(2):
            exact = ((n_r + 1) * math.pi) ** 2 / 2.0
            assert solve_bound_state(wall, QuantumLevel(n_r, 0, 3)) == \
                pytest.approx(exact, rel=1e-8)
        # radii where exp(log R) rounds above R, so the outermost grid node
        # must not fall behind the wall; in general E = j^2 / (2 R^2) with j
        # the (n_r + 1)-th zero of J_lambda
        for R in (2.91162, 3.0):
            for d, l, n_r in ((3, 0, 0), (2, 0, 0), (3, 1, 2)):
                lvl = QuantumLevel(n_r, l, d)
                exact = _bessel_zero(lvl.lam, n_r + 1) ** 2 / (2.0 * R * R)
                assert solve_bound_state(HardWall(R=R), lvl) == \
                    pytest.approx(exact, rel=1e-8)

    def test_oscillator_2s(self, oscillator):
        assert solve_bound_state(oscillator, QuantumLevel(2, 0, 3)) == \
            pytest.approx(5.5, abs=1e-6)


class TestBracketing:
    def test_explicit_bracket(self, coulomb):
        e = numerov_eigenvalue(coulomb, QuantumLevel(0, 0, 3), (-0.7, -0.3))
        assert e == pytest.approx(-0.5, rel=1e-8)

    def test_bracket_miss(self, coulomb):
        with pytest.raises(BracketMiss):
            numerov_eigenvalue(coulomb, QuantumLevel(0, 0, 3), (-0.4, -0.3))

    def test_empty_bracket(self, coulomb):
        with pytest.raises(BracketMiss):
            numerov_eigenvalue(coulomb, QuantumLevel(0, 0, 3), (-0.3, -0.4))

    def test_auto_bracket(self, coulomb):
        lo, hi = bracket_bound_state(coulomb, QuantumLevel(1, 0, 3))
        assert lo < -0.125 < hi

    def test_no_such_level(self, yukawa):
        with pytest.raises(BracketMiss):
            bracket_bound_state(yukawa, QuantumLevel(5, 3, 3))


class TestConvergence:
    def test_grid_halving_threshold(self, coulomb):
        lvl = QuantumLevel(1, 1, 3)
        e1 = solve_bound_state(coulomb, lvl, ShootingConfig(step=1.0 / 512.0))
        e2 = solve_bound_state(coulomb, lvl, ShootingConfig(step=1.0 / 1024.0))
        assert abs(e2 / e1 - 1.0) < 1e-7

    def test_fourth_order_decay(self):
        # coarse grids expose the truncation error; successive halvings
        # should shrink it by about 2^4
        p = PowerLaw(b=1.0, mu=1.0)
        lvl = QuantumLevel(0, 0, 3)
        exact = -float(ai_zeros(1)[0][0]) * 2.0 ** (-1.0 / 3.0)
        errs = []
        for step in (1.0 / 16.0, 1.0 / 32.0, 1.0 / 64.0):
            cfg = ShootingConfig(step=step, tol_rel=1e-13)
            errs.append(abs(solve_bound_state(p, lvl, cfg) - exact))
        ratio1 = errs[0] / errs[1]
        ratio2 = errs[1] / errs[2]
        assert 8.0 < ratio1 < 32.0
        assert 8.0 < ratio2 < 32.0

    def test_screened_channel(self):
        # a screened level has no closed form; check stability under halving
        p = parse_potential("screened:kind=exp,Z=10")
        lvl = QuantumLevel(1, 0, 3)
        e1 = solve_bound_state(p, lvl, ShootingConfig(step=1.0 / 512.0))
        e2 = solve_bound_state(p, lvl, ShootingConfig(step=1.0 / 1024.0))
        assert abs(e2 / e1 - 1.0) < 1e-7
