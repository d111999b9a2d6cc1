import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import beta as beta_fn
from scipy.special import gamma as gamma_fn
from scipy.special import roots_legendre

from teff import (
    Divergent,
    NoClassicalRegion,
    NumericsError,
    PowerLaw,
    Tabulated,
    TeffError,
    action_I,
    analyze_slice,
    bound_count_N,
    chi_profile,
    moment_M,
    nonlinearity_residual,
    parse_potential,
    reduced_moment,
)
from teff import potentials, quadrature
from teff.cli import main
from teff.ordering import leading_degeneracy


class TestAction:
    def test_oscillator_linearity(self, oscillator):
        # V = r^2/2 has I = E/2 - lam/2 at unit frequency
        assert action_I(analyze_slice(oscillator, 4.5), 1.5) == pytest.approx(1.5, abs=1e-9)
        assert action_I(analyze_slice(oscillator, 4.5), 0.0) == pytest.approx(2.25, abs=1e-9)

    def test_coulomb_closed_form(self, coulomb):
        # I = Z/sqrt(-2E) - lam
        assert action_I(analyze_slice(coulomb, -0.125), 1.5) == pytest.approx(0.5, abs=1e-9)
        assert action_I(analyze_slice(coulomb, -0.5), 0.25) == pytest.approx(0.75, abs=1e-9)

    def test_degenerate_interval(self, coulomb):
        s = analyze_slice(coulomb, -0.5)
        assert action_I(analyze_slice(coulomb, -0.5), s.A) == 0.0

    def test_no_classical_region(self, coulomb):
        with pytest.raises(NoClassicalRegion):
            action_I(analyze_slice(coulomb, -0.5), 1.5)

    def test_monotone_in_energy(self, yukawa):
        es = [-0.4, -0.3, -0.2, -0.1]
        vals = [action_I(analyze_slice(yukawa, e), 0.3) for e in es]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_decreasing_in_lambda(self, yukawa):
        lams = [0.0, 0.2, 0.4, 0.6]
        vals = [action_I(analyze_slice(yukawa, -0.1), x) for x in lams]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_hard_wall_action(self):
        # (1/pi) [sqrt(A^2 - lam^2) - lam*arccos(lam/A)] for the box
        wall = parse_potential("wall:R=1")
        E, lam = 2.0, 0.5
        a = math.sqrt(2 * E)
        exact = (math.sqrt(a * a - lam * lam) - lam * math.acos(lam / a)) / math.pi
        assert action_I(analyze_slice(wall, E), lam) == pytest.approx(exact, rel=1e-9)


class TestMoments:
    def test_box_closed_form(self):
        wall = parse_potential("wall:R=1")
        assert moment_M(analyze_slice(wall, 2.0), 3) == pytest.approx(8.0 / 3.0, rel=1e-10)
        assert bound_count_N(analyze_slice(wall, 2.0), 3) == pytest.approx(
            16.0 / (9.0 * math.pi), rel=1e-10)

    def test_coulomb_m1_is_pi_n1(self, coulomb):
        # d = 1 continuation: M_1 = pi * I(E, 0) = pi * Z / sqrt(-2E)
        assert moment_M(analyze_slice(coulomb, -0.5), 1) == pytest.approx(math.pi, rel=1e-9)
        assert moment_M(analyze_slice(coulomb, -0.125), 1) == pytest.approx(2.0 * math.pi, rel=1e-9)

    def test_oscillator_ratio_energy_free(self):
        # chi_3 = M_3/(A^3 B(3/2,1/2)) = 1/2 for any E
        p = PowerLaw(b=1.0, mu=2.0)
        for E in (0.5, 2.0, 7.0):
            s = analyze_slice(p, E)
            ratio = moment_M(analyze_slice(p, E), 3) / (s.A**3 * beta_fn(1.5, 0.5))
            assert ratio == pytest.approx(0.5, rel=1e-9)

    def test_yukawa_threshold_closed_form(self, yukawa):
        # M_d at E = 0 for g = e^(-r): (2Z)^(d/2) Gamma(d/2) (2/d)^(d/2)
        for d in (1.0, 2.0, 3.0, 4.5):
            exact = 2.0 ** (0.5 * d) * gamma_fn(0.5 * d) * (2.0 / d) ** (0.5 * d)
            assert moment_M(analyze_slice(yukawa, 0.0), d) == pytest.approx(exact, rel=1e-8)

    def test_inverse_square_threshold(self):
        # g = (1+r)^-2 at E = 0: M_d = (2Z)^(d/2) B(d/2, d/2)
        p = parse_potential("screened:kind=inv2,Z=1")
        for d in (1.0, 2.0, 3.0):
            exact = 2.0 ** (0.5 * d) * beta_fn(0.5 * d, 0.5 * d)
            assert moment_M(analyze_slice(p, 0.0), d) == pytest.approx(exact, rel=1e-8)

    def test_scale_covariance(self):
        # V -> cV, E -> cE multiplies M_d by c^(d/2)
        c = 2.6
        p1 = PowerLaw(b=1.0, mu=1.0)
        p2 = PowerLaw(b=c, mu=1.0)
        for d in (1, 2, 3):
            m1 = moment_M(analyze_slice(p1, 0.8), d)
            m2 = moment_M(analyze_slice(p2, c * 0.8), d)
            assert m2 == pytest.approx(c ** (0.5 * d) * m1, rel=1e-8)

    def test_divergent_flagged(self):
        # a screened well above threshold has no convergent moment
        with pytest.raises((Divergent, NoClassicalRegion)):
            moment_M(analyze_slice(parse_potential("screened:kind=exp,Z=5"), 0.5), 3)

    def test_n2_is_half_m2(self, yukawa):
        # B(3/2, 1/2) = pi/2 collapses the d = 2 prefactor to 1/2
        assert bound_count_N(analyze_slice(yukawa, -0.1), 2) == pytest.approx(
            0.5 * moment_M(analyze_slice(yukawa, -0.1), 2), rel=1e-12)

    def test_slice_keeps_each_d_apart(self, yukawa):
        # a slice stores one moment per d: a second call on the same slice
        # returns the stored value, which is what a fresh slice integrates
        s = analyze_slice(yukawa, -0.1)
        stored = {}
        for d in (1, 3):
            stored[d] = reduced_moment(s, d)
            assert stored[d] == reduced_moment(analyze_slice(yukawa, -0.1), d)
            assert reduced_moment(s, d) == stored[d]
        assert s._moments == stored
        assert stored[1] != stored[3]


class TestPanels:
    """W is evaluated once per QUADPACK panel, on the nodes QAGS asks for."""

    def test_quad_asks_for_the_predicted_nodes(self):
        # QAGS evaluates [a, b] and then bisects it, left half first, each
        # panel with dqk21's nodes in dqk21's order; a quad that asked for
        # others would fall back to one W call per point
        asked = []

        def f(x):
            asked.append(x)
            return math.exp(x) * math.sin(7.0 * x)

        quad(f, -1.0, 1.0, epsabs=0.0, epsrel=1e-10, limit=200)
        assert asked[:21] == quadrature._panel_nodes(-1.0, 1.0)
        assert asked[21:63] == (quadrature._panel_nodes(-1.0, 0.0)
                                + quadrature._panel_nodes(0.0, 1.0))

    @pytest.mark.parametrize("a,b", [(-1.0, 1.0), (0.3, 40.0), (2.0, -5.0)])
    def test_panel_values_equal_point_values(self, a, b):
        # the same bits as scipy's quad asking for one point at a time
        f = lambda x: math.exp(-0.1 * x) * math.sin(x * x)
        batches = []

        def many(xs):
            batches.append(len(xs))
            return [f(x) for x in xs]

        assert quadrature._quad(many, a, b) == quad(f, a, b, epsabs=0.0,
                                                    epsrel=0.1 * quadrature._REL_TOL,
                                                    limit=quadrature._MAX_SUBDIVISIONS)[0]
        assert set(batches) == {21}

    @pytest.mark.parametrize("f,needed", [(lambda x: math.sqrt(abs(x - 1.0 / 3.0)), 6),
                                          (lambda x: math.log(abs(x - 0.7) + 1e-300), 10)])
    @pytest.mark.parametrize("limit", [3, 5, 6, 7, 9, 10, 11, 40])
    def test_subdivision_limit_is_a_numerics_error(self, monkeypatch, f, needed, limit):
        # QAGS needs `needed` intervals on [0, 1]; where it would report its
        # limit (and warn), _quad raises, and elsewhere it returns quad's bits
        monkeypatch.setattr(quadrature, "_MAX_SUBDIVISIONS", limit)
        kw = dict(epsabs=0.0, epsrel=0.1 * quadrature._REL_TOL, limit=limit, full_output=1)
        last = quad(f, 0.0, 1.0, **kw)[2]["last"]
        assert (last == limit) == (limit <= needed)
        many = lambda xs: [f(x) for x in xs]
        if limit <= needed:
            with pytest.raises(NumericsError, match=f"more than {limit} subdivisions"):
                quadrature._quad(many, 0.0, 1.0)
        else:
            assert quadrature._quad(many, 0.0, 1.0) == quad(f, 0.0, 1.0, **kw)[0]

    @pytest.fixture
    def w_sizes_in_quad(self, monkeypatch):
        """The number of points of each W evaluation made inside scipy's quad."""
        sizes, inside = [], []
        scipy_quad, w = quadrature.quad, potentials.Potential.W

        def traced_quad(*args, **kw):
            inside.append(True)
            try:
                return scipy_quad(*args, **kw)
            finally:
                inside.pop()

        def traced_w(p, E, rho):
            if inside:
                sizes.append(np.size(rho))
            return w(p, E, rho)

        monkeypatch.setattr(quadrature, "quad", traced_quad)
        monkeypatch.setattr(potentials.Potential, "W", traced_w)
        return sizes

    @pytest.mark.parametrize("args", [
        ["spectrum", "--potential", "screened:kind=exp,Z=50", "--enumerate", "--emax", "-0.05",
         "--lmax", "4"],
        ["chi-table", "--suite", "table1"],
    ], ids=["yukawa-enumeration", "table1"])
    def test_every_w_call_is_a_whole_panel(self, w_sizes_in_quad, args, capsys):
        assert main(args) == 0
        assert w_sizes_in_quad and set(w_sizes_in_quad) == {21}

    @pytest.mark.parametrize("E,cuts", [(-1.0, 1), (0.0, 2)])
    def test_flanks_are_found_once_per_cut(self, monkeypatch, E, cuts):
        # d = 1, 2 and 3 share each cut's roots and tail fits; at the
        # threshold the right flank is cut, so a second, finer cut follows
        targets, ds = [], []
        root_left, refined = quadrature._root_left, quadrature._reduced_moment_refined

        def record_left(w, rho_m, target, **kw):
            targets.append(target)
            return root_left(w, rho_m, target, **kw)

        def record_d(s, d):
            ds.append(d)
            return refined(s, d)

        monkeypatch.setattr(quadrature, "_root_left", record_left)
        monkeypatch.setattr(quadrature, "_reduced_moment_refined", record_d)
        chi_profile(parse_potential("screened:kind=exp,Z=50"), E)
        assert sorted(ds) == [1, 2, 3]
        assert len(targets) == len(set(targets)) == cuts


def _yukawa_table(lo, hi):
    """Yukawa Z=2 on 1000 geometric nodes of [lo, hi]."""
    r = np.geomspace(lo, hi, 1000)
    return Tabulated(r, -2.0 * np.exp(-r) / r)


# Bit-for-bit values of reduced_moment for d = 1, 3, then action_I at
# lambda = 0.5 and 0.9 A, on three table ranges: the wide one decays below
# the tail cut inside it; the one ending at r = 2 ends on a positive W above
# E ~ -0.2; the one starting at r = 0.3 starts within a decade of the
# maximum (and has none at E = -2).
# Where a truncation point lies within a decade of the W maximum no tail
# rate can be fitted, which is Divergent.
_TABLE_PINS = {
    ((1e-4, 40.0), -2.0): (3.190381930979012, 1.6073797102156964, 0.23610927983182697, 0.07516441870795229),
    ((1e-4, 40.0), -0.5): (3.3129853906475355, 1.6997188263501672, 0.5233068821888598, 0.1086117237075522),
    ((1e-4, 40.0), -0.1): (3.5492774035049766, 1.8755097445740445, 0.7646121657501743, 0.1424171959133162),
    ((1e-4, 40.0), -0.01): (3.870917432969489, 2.082174799023724, 0.9278720638394014, 0.166114277064602),
    ((1e-4, 40.0), 0.0): (4.132742704955045, 2.1619698275400148, 0.9773782697029532, 0.17081393880196236),
    ((1e-4, 2.0), -2.0): (3.1903821275798334, 1.6073800229807182, 0.23610928174102652, 0.07516445881219282),
    ((1e-4, 2.0), -0.5): (3.3129856595833633, 1.6997192615808556, 0.5233068823420567, 0.10861180689144241),
    ((1e-4, 2.0), -0.1): (Divergent, Divergent, 0.7641483698517547, 0.14241719193221988),
    ((1e-4, 2.0), -0.01): (Divergent, Divergent, 0.8315871003293525, 0.16611441935954496),
    ((1e-4, 2.0), 0.0): (Divergent, Divergent, 0.8379905100837122, 0.17081405014947892),
    ((0.3, 2.0), -2.0): (NoClassicalRegion,) * 4,
    ((0.3, 2.0), -0.5): (Divergent, Divergent, 0.30785664870452867, 0.10768246256216411),
    ((0.3, 2.0), -0.1): (Divergent, Divergent, 0.5383268437484189, 0.14241718469075645),
    ((0.3, 2.0), -0.01): (Divergent, Divergent, 0.603485275376468, 0.16611444439995565),
    ((0.3, 2.0), 0.0): (Divergent, Divergent, 0.6096364654896135, 0.17081410848442644),
}


def _table_quantities(t, E):
    return (lambda: reduced_moment(analyze_slice(t, E), 1.0),
            lambda: reduced_moment(analyze_slice(t, E), 3.0),
            lambda: action_I(analyze_slice(t, E), 0.5),
            lambda: action_I(analyze_slice(t, E), 0.9 * analyze_slice(t, E).A))


# scipy's "roundoff error is detected" warnings on these tables are a known
# defect, not yet measured (ROADMAP item 5); every other test turns an
# IntegrationWarning into an error
@pytest.mark.filterwarnings("default::scipy.integrate.IntegrationWarning")
class TestTableEdges:
    @pytest.mark.parametrize("span,E", list(_TABLE_PINS),
                             ids=[f"{lo:g}-{hi:g}-E{E:g}" for (lo, hi), E in _TABLE_PINS])
    def test_pinned_bits(self, span, E):
        t = _yukawa_table(*span)
        for fn, pin in zip(_table_quantities(t, E), _TABLE_PINS[(span, E)]):
            if isinstance(pin, float):
                assert fn() == pin
            else:
                cause = "within a decade of the W maximum" if pin is Divergent else None
                with pytest.raises(pin, match=cause):
                    fn()

    def test_pins_reach_every_walk_exit(self, monkeypatch):
        # the pinned cases clamp a left root to the floor, leave the right
        # flank at a zero, a cut and the table edge, and put an outer
        # turning point on the ceiling
        seen = set()
        root_left, classify, turning = (quadrature._root_left, quadrature._classify_right,
                                        quadrature._turning_points)

        def record_left(*args, **kw):
            rho, clamped = root_left(*args, **kw)
            seen.add(("clamped", clamped))
            return rho, clamped

        def record_right(*args, **kw):
            kind, rho = classify(*args, **kw)
            seen.add(kind)
            return kind, rho

        def record_turning(s, *args):
            rho1, rho2 = turning(s, *args)
            seen.add(("ceiling", rho2 == math.log(s.p.domain()[1])))
            return rho1, rho2

        monkeypatch.setattr(quadrature, "_root_left", record_left)
        monkeypatch.setattr(quadrature, "_classify_right", record_right)
        monkeypatch.setattr(quadrature, "_turning_points", record_turning)
        for span, E in _TABLE_PINS:
            t = _yukawa_table(*span)
            for fn in _table_quantities(t, E):
                try:
                    fn()
                except TeffError:
                    pass
        assert seen >= {("clamped", True), "zero", "cut", "edge", ("ceiling", True)}


class TestNonlinearity:
    def test_reference_wells_are_linear(self, coulomb, oscillator):
        assert abs(nonlinearity_residual(analyze_slice(coulomb, -0.5), 0.5, 1.0)) < 1e-9
        assert abs(nonlinearity_residual(analyze_slice(oscillator, 4.5), 1.5, 0.5)) < 1e-9

    def test_screened_residual_small_but_nonzero(self):
        p = parse_potential("screened:kind=exp,Z=50")
        s = analyze_slice(p, 0.0)
        from teff.transforms import phi_additive

        phi = phi_additive(s, 3)
        q = nonlinearity_residual(s, 2.0, phi)
        # frozen regression value; documents the linearity quality at lam = 2
        # (about 1.6% of N_1(0) = 7.99 for this well)
        assert q == pytest.approx(-0.13001, abs=2e-4)


class TestWeightedIdentity:
    @pytest.mark.parametrize("mu", [1.0, 2.0, 4.0])
    def test_power_law(self, mu):
        p = PowerLaw(b=1.0, mu=mu)
        E = 1.0
        s = analyze_slice(p, E)
        nodes, weights = roots_legendre(64)
        lam = 0.5 * s.A * (nodes + 1.0)
        wts = 0.5 * s.A * weights
        acts = np.array([action_I(s, float(x)) for x in lam])
        for d in (2, 3, 4):
            degs = np.array([leading_degeneracy(float(x), d) for x in lam])
            lhs = float(np.sum(wts * degs * acts))
            assert lhs == pytest.approx(bound_count_N(s, d), rel=5e-3)

    def test_screened(self):
        p = parse_potential("screened:kind=exp,Z=50")
        E = -2.0
        s = analyze_slice(p, E)
        nodes, weights = roots_legendre(64)
        lam = 0.5 * s.A * (nodes + 1.0)
        wts = 0.5 * s.A * weights
        acts = np.array([action_I(s, float(x)) for x in lam])
        for d in (2, 3, 4):
            degs = np.array([leading_degeneracy(float(x), d) for x in lam])
            lhs = float(np.sum(wts * degs * acts))
            assert lhs == pytest.approx(bound_count_N(s, d), rel=5e-3)
