import math

import pytest
from scipy.integrate import solve_ivp
from scipy.special import beta as beta_fn
from scipy.special import betaln
from scipy.special import gamma as gamma_fn

from teff import (
    PowerLaw,
    adiabatic_correction,
    analyze_slice,
    b_coefficients,
    chi_d,
    chi_infinity,
    chi_infinity_forms,
    chi_power_law_closed,
    chi_profile,
    parse_potential,
    phi_additive,
    phi_multiplicative,
)
from teff.transforms import screened_deep_energy


class TestChiD:
    @pytest.mark.parametrize("d", [1, 2, 3, 5, 8])
    @pytest.mark.parametrize("E", [-0.2, -0.5, -2.0])
    def test_coulomb_unity(self, coulomb, d, E):
        assert chi_d(analyze_slice(coulomb, E), d) == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("d", [1, 2, 3, 5, 8])
    @pytest.mark.parametrize("E", [0.5, 1.0, 3.0])
    def test_oscillator_half(self, d, E):
        p = PowerLaw(b=1.0, mu=2.0)
        assert chi_d(analyze_slice(p, E), d) == pytest.approx(0.5, abs=1e-6)

    def test_non_integer_d(self, yukawa):
        # smooth in d: the half-integer value sits between its neighbours
        v2 = chi_d(analyze_slice(yukawa, 0.0), 2.0)
        v25 = chi_d(analyze_slice(yukawa, 0.0), 2.5)
        v3 = chi_d(analyze_slice(yukawa, 0.0), 3.0)
        assert v2 < v25 < v3

    def test_smooth_monotone_in_d(self):
        for spec, E in (("power:b=1,mu=1", 1.0), ("power:b=1,mu=3", 1.0),
                        ("screened:kind=exp,Z=1", 0.0)):
            p = parse_potential(spec)
            ds = [1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 10.0, 12.0]
            vals = [chi_d(analyze_slice(p, E), d) for d in ds]
            diffs = [b - a for a, b in zip(vals, vals[1:])]
            assert all(x > 0 for x in diffs) or all(x < 0 for x in diffs)

    def test_state_count_identity(self):
        # d! N_d / (2 A^d) equals M_d / (A^d B(d/2, 1/2)): the state-count
        # and moment forms of chi_d agree through a beta-function identity
        for d in range(2, 65):
            log_count = (math.lgamma(d + 1) - math.log(2.0) + betaln(1.5, 0.5 * (d - 1.0))
                         - math.log(math.pi) - math.lgamma(d - 1.0))
            assert log_count == pytest.approx(-betaln(0.5 * d, 0.5), abs=1e-9)

    def test_closed_form_agreement(self):
        for mu in (-1.5, -1.0, -0.5, 0.5, 1.0, 2.0, 3.0, 6.0):
            p = PowerLaw(b=1.0 if mu > 0 else -1.0, mu=mu)
            E = p.reference_energy()
            for d in (1, 2, 3, 4.5):
                assert chi_d(analyze_slice(p, E), d) == pytest.approx(
                    chi_power_law_closed(mu, d), rel=1e-8)


class TestClosedForm:
    def test_table_cells(self):
        assert chi_power_law_closed(3.0, 2) == pytest.approx(0.461, abs=5e-4)
        assert chi_power_law_closed(2.0, 7) == pytest.approx(0.5, rel=1e-12)
        assert chi_power_law_closed(-1.0, 4) == pytest.approx(1.0, rel=1e-12)

    def test_hard_wall_limit(self):
        for d in (1, 2, 3):
            assert chi_power_law_closed(math.inf, d) == pytest.approx(
                1.0 / (d * beta_fn(0.5 * d, 0.5)), rel=1e-12)

    def test_mu_zero_limit(self):
        # e^{d/2} 2^{d/2} Gamma(d/2+1) d^{-d/2-1} / B(d/2, 1/2)
        for d in (1, 2, 3):
            exact = (math.e ** (0.5 * d) * 2 ** (0.5 * d) * gamma_fn(0.5 * d + 1)
                     * d ** (-0.5 * d - 1.0) / beta_fn(0.5 * d, 0.5))
            assert chi_power_law_closed(0.0, d) == pytest.approx(exact, rel=1e-5)

    def test_domain(self):
        with pytest.raises(ValueError):
            chi_power_law_closed(-2.0, 3)


class TestChiInfinity:
    def test_power_law(self):
        for mu in (1.0, 3.0):
            p = PowerLaw(b=1.0, mu=mu)
            assert chi_infinity(analyze_slice(p, 1.0)) == pytest.approx(
                1.0 / math.sqrt(mu + 2.0), rel=1e-8)

    def test_inverse_square_is_two(self):
        p = parse_potential("screened:kind=inv2,Z=1")
        assert chi_infinity(analyze_slice(p, 0.0)) == pytest.approx(2.0, rel=1e-8)

    def test_inv25_closed_form(self):
        # kappa(r_m) = -1.7 at threshold, so the limit is 1/sqrt(0.3)
        p = parse_potential("screened:kind=inv25,Z=1")
        assert chi_infinity(analyze_slice(p, 0.0)) == pytest.approx(1.0 / math.sqrt(0.3), rel=1e-8)

    def test_thomas_fermi_threshold(self):
        # Independent of teff's TF solver: integrate Phi'' = Phi^(3/2)/sqrt(x)
        # from the literature slope (Boyd 2013), stop at the maximum of
        # x Phi (where W peaks at E = 0), and use kappa + 2 there, which the
        # TF equation reduces to 1 - x^(3/2) Phi^(1/2) / 2.  The paper's
        # printed 1.89 is a misprint; see _TABLE_SCREENED in teff.verify.
        slope = -1.588071022611375
        x0 = 1e-8
        start = [1.0 + slope * x0 + 4.0 / 3.0 * x0 ** 1.5, slope + 2.0 * math.sqrt(x0)]

        def rhs(x, y):
            return [y[1], max(y[0], 0.0) ** 1.5 / math.sqrt(x)]

        def peak(x, y):
            return y[0] + x * y[1]
        peak.terminal = True

        sol = solve_ivp(rhs, (x0, 10.0), start, method="DOP853", rtol=1e-13,
                        atol=1e-15, events=peak)
        x_m, phi_m = sol.t_events[0][0], sol.y_events[0][0][0]
        assert x_m == pytest.approx(2.10403, abs=1e-5)
        expected = math.sqrt(2.0 / (2.0 - x_m ** 1.5 * math.sqrt(phi_m)))
        assert expected == pytest.approx(1.937679, rel=1e-6)
        p = parse_potential("screened:kind=tf,Z=1")
        assert chi_infinity(analyze_slice(p, 0.0)) == pytest.approx(expected, rel=1e-5)

    def test_forms_agree(self, yukawa):
        cur, con = chi_infinity_forms(analyze_slice(yukawa, -0.1))
        assert cur == pytest.approx(con, rel=1e-6)

    def test_hard_wall_limit_route(self):
        wall = parse_potential("wall:R=1")
        assert abs(chi_infinity(analyze_slice(wall, 2.0))) < 2e-3


class TestPhiEstimators:
    def test_reference_values(self, coulomb, oscillator):
        for d in (2, 3, 5):
            assert phi_additive(analyze_slice(coulomb, -0.5), d) == pytest.approx(1.0, abs=1e-8)
            assert phi_additive(analyze_slice(oscillator, 1.0), d) == pytest.approx(0.5, abs=1e-8)
            assert phi_multiplicative(analyze_slice(coulomb, -0.5), d) == pytest.approx(
                1.0, abs=1e-8)

    def test_yukawa_threshold(self, yukawa):
        assert phi_additive(analyze_slice(yukawa, 0.0), 3) == pytest.approx(1.286, abs=2e-3)
        assert phi_multiplicative(analyze_slice(yukawa, 0.0), 3) == pytest.approx(1.286, abs=2e-3)

    def test_monotone_decreasing_in_mu(self):
        mus = [-1.5, -1.0, -0.5, 0.5, 1.0, 2.0, 3.0, 6.0]
        vals = []
        for mu in mus:
            p = PowerLaw(b=1.0 if mu > 0 else -1.0, mu=mu)
            vals.append(phi_additive(analyze_slice(p, p.reference_energy()), 3))
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_multiplicative_bounds_additive(self):
        for spec, E in (("power:b=1,mu=1", 1.0), ("power:b=1,mu=3", 2.0),
                        ("screened:kind=exp,Z=1", 0.0),
                        ("screened:kind=inv25,Z=1", -0.1)):
            p = parse_potential(spec)
            for d in (2, 3):
                r = (phi_multiplicative(analyze_slice(p, E), d)
                     / phi_additive(analyze_slice(p, E), d))
                assert 1.0 - 1e-9 <= r < 1.01

    def test_approximations_mu1(self):
        # phi_as = chi_1 + (chi_1 - chi_inf)/3 reproduces the printed-cell
        # arithmetic 0.551 + (0.551 - 0.577)/3 = 0.5423 to table precision
        prof = chi_profile(PowerLaw(b=1.0, mu=1.0), 1.0, ds=(3,))
        assert prof.phi_as[3] == pytest.approx(0.5423, abs=5e-4)
        assert prof.s[3] == pytest.approx(0.998, abs=2e-3)
        assert prof.w[3] == pytest.approx(0.998, abs=2e-3)
        assert 1.0 <= prof.ratio_R[3] < 1.001

    def test_coulomb_all_unity(self, coulomb):
        prof = chi_profile(coulomb, -0.5, ds=(3,))
        for field in (prof.phi_as, prof.chi_Das, prof.ratio_R, prof.s, prof.w):
            assert field[3] == pytest.approx(1.0, abs=1e-8)


class TestBCoefficients:
    def test_reference_zeros(self):
        assert b_coefficients(2.0)[0] == pytest.approx(0.0, abs=1e-15)
        assert b_coefficients(-1.0)[0] == pytest.approx(0.0, abs=1e-15)

    def test_values(self):
        b1, _ = b_coefficients(0.0)
        assert b1 == pytest.approx(-1.0 / 12.0, rel=1e-12)
        assert b_coefficients(4.0)[0] == pytest.approx(0.13889, abs=1e-5)
        assert b_coefficients(2.0)[1] == pytest.approx(11.0 / 360.0, rel=1e-12)

    def test_asymptotic_extraction(self):
        # d (chi_d/chi_inf - 1) -> b1 with only even inverse powers absent
        for mu in (1.0, 3.0):
            chi_inf = 1.0 / math.sqrt(mu + 2.0)
            s16 = 16.0 * (chi_power_law_closed(mu, 16) / chi_inf - 1.0)
            s32 = 32.0 * (chi_power_law_closed(mu, 32) / chi_inf - 1.0)
            b1_est = (4.0 * s32 - s16) / 3.0
            assert b1_est == pytest.approx(b_coefficients(mu)[0], abs=1e-3)


class TestAdiabatic:
    def test_power_law_exactly_zero(self):
        corr = adiabatic_correction(analyze_slice(PowerLaw(b=1.0, mu=2.5), 1.0))
        assert corr.b1_add == 0.0 and corr.phi_add == 0.0
        assert corr.mu_m == 2.5

    def test_coulomb(self, coulomb):
        corr = adiabatic_correction(analyze_slice(coulomb, -0.5))
        assert corr.b1_add == 0.0 and corr.mu_m == -1.0

    def test_quark_small_at_high_energy(self):
        p = parse_potential("quark:alpha=0.1,delta=3,B=10")
        E = 200.0
        corr = adiabatic_correction(analyze_slice(p, E))
        phi = phi_additive(analyze_slice(p, E), 3)
        assert abs(corr.phi_add / phi) < 0.05


class TestProfile:
    def test_fields_coherent(self, yukawa):
        prof = chi_profile(yukawa, 0.0, ds=(2, 3))
        assert prof.chi1 == pytest.approx(math.sqrt(2.0 * math.e / math.pi), rel=1e-9)
        assert prof.chi_inf == pytest.approx(math.sqrt(2.0), rel=1e-7)
        assert set(prof.chi) == {2, 3}
        assert prof.ratio_R[3] >= 1.0 - 1e-9
        assert prof.b1_add is not None

    def test_scale_invariance(self):
        # chi and phi unchanged under V -> cV, E -> cE
        c = 5.1
        p1 = parse_potential("screened:kind=exp,Z=2")
        p2 = parse_potential(f"screened:kind=exp,Z={2 * c}")
        a = chi_profile(p1, -0.3, ds=(3,))
        b = chi_profile(p2, -0.3 * c, ds=(3,))
        assert b.chi1 == pytest.approx(a.chi1, rel=1e-8)
        assert b.chi[3] == pytest.approx(a.chi[3], rel=1e-8)
        assert b.phi_additive[3] == pytest.approx(a.phi_additive[3], rel=1e-8)

    def test_r_rescale_invariance(self):
        for a_scale in (2.0, 0.5):
            p1 = PowerLaw(b=1.0, mu=1.5)
            p2 = PowerLaw(b=a_scale**1.5, mu=1.5)
            x = chi_profile(p1, 1.3, ds=(3,))
            y = chi_profile(p2, 1.3, ds=(3,))
            assert y.chi[3] == pytest.approx(x.chi[3], rel=1e-8)
            assert y.phi_additive[3] == pytest.approx(x.phi_additive[3], rel=1e-8)


class TestDeepEnergy:
    def test_columns_approach_unity(self, yukawa):
        e_deep = screened_deep_energy(yukawa)
        prof = chi_profile(yukawa, e_deep, ds=(2, 3))
        for v in (prof.chi1, prof.chi[2], prof.chi[3], prof.chi_inf,
                  prof.phi_additive[3], prof.phi_mult[3]):
            assert v == pytest.approx(1.0, abs=1e-3)

    def test_requires_screened(self, oscillator):
        with pytest.raises(ValueError):
            screened_deep_energy(oscillator)
