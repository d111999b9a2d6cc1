import math
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_bvp
from scipy.optimize import minimize_scalar

from teff import (
    HardWall,
    MultipleMaxima,
    NoClassicalRegion,
    PotentialError,
    PowerLaw,
    Quarkonium,
    QuantumLevel,
    ScreenedCoulomb,
    Tabulated,
    analyze_slice,
    chi_profile,
    diagram_data,
    ordering_theorem_signs,
    parse_potential,
    quantize_energy,
    tf_initial_slope,
    tf_screening,
)
from teff import potentials
from teff.potentials import load_table


def _tf_log_reference(horizon, tol):
    """ln Phi as a function of t = ln x, from a collocation solve of the
    Thomas-Fermi equation that shares no code with teff.

    u = ln Phi and v = x Phi'/Phi obey u' = v, v' = v - v^2 + x^(3/2) e^(u/2).
    The slope p is a free parameter: at x0 the state matches the series
    Phi = 1 + p x + (4/3) x^(3/2), and at the horizon v = -3 (144/x^3 tail).
    """
    x0 = 1e-6

    def rhs(t, y, p):
        return np.vstack((y[1], y[1] - y[1] ** 2 + np.exp(1.5 * t + 0.5 * y[0])))

    def bc(ya, yb, p):
        phi = 1.0 + p[0] * x0 + 4.0 / 3.0 * x0 ** 1.5
        dphi = p[0] + 2.0 * math.sqrt(x0)
        return np.array([ya[0] - math.log(phi), ya[1] - x0 * dphi / phi, yb[1] + 3.0])

    t = np.linspace(math.log(x0), math.log(horizon), 300)
    x = np.exp(t)
    guess = np.vstack((-3.0 * np.log1p(x / 5.0), -3.0 * x / (5.0 + x)))
    sol = solve_bvp(rhs, bc, t, guess, p=[-1.5], tol=tol, max_nodes=100000)
    assert sol.success, sol.message
    return lambda t: sol.sol(t)[0]


class TestParsing:
    def test_power(self):
        p = parse_potential("power:b=1,mu=2")
        assert isinstance(p, PowerLaw) and p.b == 1 and p.mu == 2

    def test_screened(self):
        p = parse_potential("screened:kind=exp,Z=50")
        assert isinstance(p, ScreenedCoulomb) and p.Z == 50
        assert p.screening.kind == "exp"

    def test_quark_and_wall(self):
        q = parse_potential("quark:alpha=0.5,delta=1,B=3")
        assert isinstance(q, Quarkonium)
        w = parse_potential("wall:R=1")
        assert isinstance(w, HardWall) and w.R == 1

    def test_invalid_exponent(self):
        with pytest.raises(PotentialError, match="mu must be > -2"):
            parse_potential("power:b=1,mu=-3")

    def test_repulsive_rejected(self):
        with pytest.raises(PotentialError, match="b\\*mu"):
            parse_potential("power:b=-1,mu=2")

    def test_unknown_family(self):
        with pytest.raises(PotentialError, match="unknown potential family"):
            parse_potential("gauss:a=1")

    def test_missing_key(self):
        with pytest.raises(PotentialError):
            parse_potential("power:b=1")

    def test_bad_number(self):
        with pytest.raises(PotentialError, match="not a number"):
            parse_potential("power:b=x,mu=2")

    def test_quark_domain(self):
        with pytest.raises(PotentialError, match="alpha"):
            parse_potential("quark:alpha=1.5,delta=1,B=3")

    def test_table_roundtrip(self, yukawa_table):
        p = parse_potential(f"table:path={yukawa_table}")
        assert isinstance(p, Tabulated)
        v, dv = p.V(1.0), p.dV(1.0)
        assert v == pytest.approx(-2.0 * math.exp(-1.0), rel=1e-6)
        assert dv == pytest.approx(2.0 * math.exp(-1.0) * 2.0, rel=1e-4)

    def test_table_too_small(self, tmp_path):
        path = tmp_path / "tiny.dat"
        path.write_text("1 1\n2 2\n")
        with pytest.raises(PotentialError, match="at least 8"):
            load_table(path)


class TestEvaluation:
    def test_power_law_values(self):
        p = PowerLaw(b=1, mu=2)
        assert p.V(2.0) == 4.0 and p.kappa(2.0) == 2.0

    def test_yukawa_derivative(self, yukawa):
        # -Z e^(-r)/r at r = 1: V'' / V' = -5/2, so kappa = 1 - 5/2
        v, kappa = yukawa.V(1.0), yukawa.kappa(1.0)
        assert v == pytest.approx(-math.exp(-1.0), rel=1e-14)
        assert kappa == pytest.approx(-1.5, rel=1e-14)

    def test_quark_cancellation(self):
        # B (-alpha/r + (1 - alpha) r) at r = 1: V' = 3, V'' = -3, kappa = 0
        p = Quarkonium(alpha=0.5, delta=1.0, B=3.0)
        v, kappa = p.V(1.0), p.kappa(1.0)
        assert v == pytest.approx(0.0, abs=1e-14)
        assert kappa == pytest.approx(0.0, abs=1e-14)

    def test_table_range_enforced(self, yukawa_table):
        p = load_table(yukawa_table)
        with pytest.raises(PotentialError, match="outside tabulated range"):
            p.V(100.0)


class TestKappa:
    def test_power_law_constant(self):
        assert PowerLaw(b=1, mu=3).kappa(0.37) == 3.0
        assert PowerLaw(b=-1, mu=-1).kappa(5.0) == -1.0

    @pytest.mark.parametrize("kind", ["exp", "inv2", "inv25", "tf"])
    def test_screened_below_minus_one(self, kind):
        p = parse_potential(f"screened:kind={kind},Z=1")
        r = np.geomspace(1e-3, 1e3, 120)
        vals = np.asarray([float(p.kappa(ri)) for ri in r])
        assert np.all(vals < -1.0)

    def test_quark_limits_and_monotonicity(self):
        p = Quarkonium(alpha=0.3, delta=2.5, B=2.0)
        r = np.geomspace(1e-3, 1e3, 200)
        vals = np.asarray([float(p.kappa(ri)) for ri in r])
        assert np.all(vals > -1.0) and np.all(vals < p.delta)
        assert np.all(np.diff(vals) > 0)
        assert p.kappa(1e-9) == pytest.approx(-1.0, abs=1e-6)
        assert p.kappa(1e9) == pytest.approx(p.delta, abs=1e-6)

    def test_wall_kappa_undefined(self):
        with pytest.raises(PotentialError):
            HardWall(R=1.0).kappa(0.5)


class TestEffectiveW:
    def test_values(self, coulomb):
        assert PowerLaw(b=1, mu=2).W(3.0, 0.0) == pytest.approx(4.0)
        assert coulomb.W(-0.5, 0.0) == pytest.approx(1.0)
        p = parse_potential("screened:kind=inv2,Z=1")
        assert p.W(0.0, 0.0) == pytest.approx(0.5)

    def test_vectorised(self, yukawa):
        rho = np.linspace(-2, 2, 11)
        w = yukawa.W(-0.1, rho)
        assert w.shape == rho.shape


class TestAnalyzeSlice:
    def test_coulomb_closed_form(self, coulomb):
        s = analyze_slice(coulomb, -0.5)
        assert s.r_m == pytest.approx(1.0, rel=1e-9)
        assert s.A == pytest.approx(1.0, rel=1e-12)
        assert s.r_t == pytest.approx(2.0, rel=1e-10)
        assert s.kappa_at_rm == -1.0

    def test_oscillator_closed_form(self):
        s = analyze_slice(PowerLaw(b=1, mu=2), 2.0)
        assert s.r_m == pytest.approx(1.0, rel=1e-9)
        assert s.A == pytest.approx(math.sqrt(2.0), rel=1e-12)

    def test_hard_wall_boundary_max(self):
        s = analyze_slice(HardWall(R=1.0), 2.0)
        assert s.boundary_max
        assert s.r_m == 1.0 and s.r_t == 1.0
        assert s.A == pytest.approx(2.0, rel=1e-14)

    def test_yukawa_at_threshold(self, yukawa):
        s = analyze_slice(yukawa, 0.0)
        assert s.r_m == pytest.approx(1.0, rel=1e-9)
        assert s.A == pytest.approx(math.sqrt(2.0 / math.e), rel=1e-12)
        assert math.isinf(s.r_t)

    @pytest.mark.parametrize("spec", ["power:b=1,mu=2", "wall:R=1"])
    def test_nan_energy_is_rejected(self, spec):
        with pytest.raises(ValueError, match="NaN"):
            analyze_slice(parse_potential(spec), math.nan)

    def test_stationarity(self, yukawa):
        s = analyze_slice(yukawa, -0.05)
        rho_m = math.log(s.r_m)
        h = 1e-5
        slope = (yukawa.W(-0.05, rho_m + h) - yukawa.W(-0.05, rho_m - h)) / (2 * h)
        assert abs(slope) < 1e-8 * s.A**2

    def test_no_classical_region(self):
        with pytest.raises(NoClassicalRegion):
            analyze_slice(PowerLaw(b=1, mu=2), -1.0)

    def test_multiple_maxima_rejected(self):
        r = np.geomspace(0.05, 20.0, 2000)
        v = -3.0 * np.exp(-((r - 1.0) ** 2) / 0.1) - 3.0 * np.exp(-((r - 6.0) ** 2) / 0.5)
        p = Tabulated(r, v)
        with pytest.raises(MultipleMaxima):
            analyze_slice(p, -0.5)

    @pytest.mark.parametrize("a", [2.0, 0.5])
    def test_rescaling_preserves_shape(self, a):
        # r -> a r realised inside each family: the shape of W is carried
        # over rigidly (kappa at the maximum identical, r_m and A scaled
        # by exactly 1/a); the dimensionless transforms built on the
        # slice are then invariant, which test_transforms checks
        p1 = PowerLaw(b=1.0, mu=1.5)
        p2 = PowerLaw(b=a**1.5, mu=1.5)
        s1 = analyze_slice(p1, 1.3)
        s2 = analyze_slice(p2, 1.3)
        assert s2.A == pytest.approx(s1.A / a, rel=1e-10)
        assert s2.kappa_at_rm == pytest.approx(s1.kappa_at_rm, abs=1e-10)
        assert s2.r_m == pytest.approx(s1.r_m / a, rel=1e-8)

        q1 = Quarkonium(alpha=0.5, delta=1.0, B=3.0)
        scale = 0.5 / a + 0.5 * a
        q2 = Quarkonium(alpha=(0.5 / a) / scale, delta=1.0, B=3.0 * scale)
        t1 = analyze_slice(q1, 2.0)
        t2 = analyze_slice(q2, 2.0)
        assert t2.A == pytest.approx(t1.A / a, rel=1e-10)
        assert t2.r_m == pytest.approx(t1.r_m / a, rel=1e-8)
        assert t2.kappa_at_rm == pytest.approx(t1.kappa_at_rm, rel=1e-8)

    def test_tabulated_matches_analytic(self, yukawa_table):
        tab = load_table(yukawa_table)
        ana = parse_potential("screened:kind=exp,Z=2")
        st = analyze_slice(tab, -0.1)
        sa = analyze_slice(ana, -0.1)
        assert st.A == pytest.approx(sa.A, rel=1e-7)
        assert st.r_m == pytest.approx(sa.r_m, rel=1e-5)


def _scipy_slice(p, E):
    """(r_m, A) by the search ``analyze_slice`` made before it had its own
    golden section: scipy's on -W from the scan's bracket, then the Newton
    polish on scalar W calls."""
    rho, w, i = potentials._locate_maximum(p, E)
    res = minimize_scalar(lambda x: -float(p.W(E, x)), bracket=(rho[i - 1], rho[i], rho[i + 1]),
                          method="golden", options={"xtol": 1e-11})
    rho_m = float(res.x)
    h = 1e-5 * max(1.0, abs(rho_m))
    for _ in range(8):
        w_p, w_c, w_m = (float(p.W(E, rho_m + k * h)) for k in (1, 0, -1))
        d1 = (w_p - w_m) / (2.0 * h)
        d2 = (w_p - 2.0 * w_c + w_m) / (h * h)
        if d2 >= 0.0:
            break
        step = -d1 / d2
        if abs(step) > 0.1:
            break
        rho_m += step
        if abs(step) < 1e-13 * max(1.0, abs(rho_m)):
            break
    return math.exp(rho_m), math.sqrt(float(p.W(E, rho_m)))


# every analytic family with an interior maximum, each at energies from
# deep in the well to just below (or at) its threshold
_GOLDEN_CASES = [
    ("power:b=-1,mu=-1", [-50.0, -0.5, -1e-3, -1e-7]),
    ("power:b=-2,mu=-0.5", [-10.0, -0.3, -1e-4]),
    ("power:b=-1,mu=-1.7", [-3.0, -1e-3]),
    ("power:b=1,mu=0.3", [1.5, 40.0]),
    ("power:b=1,mu=1", [1e-3, 2.7, 300.0]),
    ("power:b=0.5,mu=2", [0.01, 1.0, 1e4]),
    ("power:b=2,mu=6", [0.1, 50.0]),
    ("screened:kind=exp,Z=50", [-2e4, -1200.0, -3.0, -1e-6, 0.0]),
    ("screened:kind=inv2,Z=7", [-40.0, -0.5, -1e-9, 0.0]),
    ("screened:kind=inv25,Z=30", [-500.0, -2.0, -1e-5, 0.0]),
    ("screened:kind=tf,Z=20", [-300.0, -1.0, -1e-8, 0.0]),
    ("quark:alpha=0.5,delta=1,B=3", [-60.0, -1.0, 0.0, 4.5, 200.0]),
    ("quark:alpha=0.2,delta=2,B=1", [-5.0, 0.7, 30.0]),
]


class TestGoldenSearch:
    @pytest.mark.parametrize("spec,energies", _GOLDEN_CASES, ids=[c[0] for c in _GOLDEN_CASES])
    def test_same_bits_as_scipy(self, spec, energies):
        p = parse_potential(spec)
        for E in energies:
            s = analyze_slice(p, E)
            assert (s.r_m, s.A) == _scipy_slice(p, E)

    def test_four_fewer_w_calls(self, monkeypatch):
        # the bracket values come from the scan, and the middle point is
        # not evaluated again
        p = parse_potential("screened:kind=exp,Z=50")
        calls = []
        original = potentials.Potential.W

        def counted(self, E, rho):
            calls.append(np.ndim(rho))
            return original(self, E, rho)

        monkeypatch.setattr(potentials.Potential, "W", counted)
        analyze_slice(p, -3.0)
        ours = calls.count(0)
        calls.clear()
        rho, w, i = potentials._locate_maximum(p, -3.0)
        minimize_scalar(lambda x: -float(p.W(-3.0, x)), bracket=(rho[i - 1], rho[i], rho[i + 1]),
                        method="golden", options={"xtol": 1e-11})
        assert ours == calls.count(0) - 4


def _no_turning_point(*args):
    raise AssertionError("the turning point of V was computed")


class TestLazyGeometry:
    @pytest.mark.parametrize("spec,E,grid", [
        ("screened:kind=exp,Z=50", -2.0, (-800.0, -200.0, -50.0, -10.0, -2.0)),
        ("quark:alpha=0.5,delta=1,B=3", 2.0, (-6.0, -1.0, 1.0, 3.0, 6.0)),
    ])
    def test_pipeline_never_reads_the_turning_point(self, monkeypatch, spec, E, grid):
        levels = [QuantumLevel(0, 1, 3), QuantumLevel(1, 0, 3)]

        def outputs():
            p = parse_potential(spec)
            return (chi_profile(p, E), quantize_energy(p, QuantumLevel(1, 1, 3)),
                    diagram_data(levels, (0.1, 2.2), [(p, list(grid))]))

        expected = outputs()
        assert expected[2].crossings
        monkeypatch.setattr(potentials, "_turning_point_of_v", _no_turning_point)
        assert outputs() == expected

    def test_sign_theorems_compute_the_turning_point_once(self, monkeypatch):
        calls = []
        original = potentials._turning_point_of_v

        def counted(p, E, r_m):
            calls.append(E)
            return original(p, E, r_m)

        monkeypatch.setattr(potentials, "_turning_point_of_v", counted)
        ordering_theorem_signs(PowerLaw(b=1.0, mu=1.0), 1.0)
        assert calls == [1.0]
        s = analyze_slice(PowerLaw(b=1.0, mu=1.0), 1.0)
        assert s.r_t == s.r_t == pytest.approx(1.0, rel=1e-12)
        assert calls == [1.0, 1.0]

    def test_hard_wall_geometry_comes_from_the_wall(self, monkeypatch):
        monkeypatch.setattr(potentials, "_turning_point_of_v", _no_turning_point)
        s = analyze_slice(HardWall(R=1.5), 2.0)
        assert s.r_t == 1.5
        assert s.kappa_at_rm == math.inf


class TestThomasFermi:
    def test_boundary_value(self):
        assert tf_screening(0.0) == 1.0

    def test_initial_slope(self):
        # Boyd, J. Comput. Appl. Math. 244 (2013), to 16 digits; the build
        # integrates Phi'(0) = -int_0^inf Phi^(3/2) x^(-1/2) dx on its solution
        assert tf_initial_slope() == pytest.approx(-1.588071022611375, abs=1e-12)

    def test_profile_matches_reference(self):
        # Two settings of the reference, (1e6, 1e-11) and (1e7, 1e-11), agree
        # to 3e-14 on this range, and the table sits 1.5e-13 from it; 1e-10
        # is the build's own collocation tolerance.  A table 2.5e-6 off near
        # x = 1e3 fails.
        x = np.geomspace(1e-3, 1e3, 2001)
        reference = np.exp(_tf_log_reference(1e6, 1e-11)(np.log(x)))
        np.testing.assert_allclose(tf_screening(x), reference, rtol=1e-10, atol=0.0)

    def test_concurrent_first_use_builds_once(self, monkeypatch):
        built = []

        class Counting(potentials._TFSolution):
            def __init__(self):
                built.append(None)
                super().__init__()

        monkeypatch.setattr(potentials, "_TF_SOLUTION", None)
        monkeypatch.setattr(potentials, "_TFSolution", Counting)
        barrier = threading.Barrier(4, timeout=60)

        def first_use():
            barrier.wait()
            return tf_initial_slope()

        # a short switch interval interleaves the threads' check and build
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(first_use) for _ in range(4)]
                slopes = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert len(built) == 1
        assert len(set(slopes)) == 1

    def test_import_builds_no_table(self, run_python):
        # the table is built on first use, never by the import
        proc = run_python("-c", "import teff; print(teff.potentials._TF_SOLUTION is None)")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "True"

    def test_far_tail(self):
        # inverse-cube asymptote, anchored at the table edge where the
        # true screening sits ~1% below the raw asymptotic coefficient
        assert tf_screening(1e6) == pytest.approx(144.0 / 1e18, rel=0.02)
        assert tf_screening(2e6) == pytest.approx(tf_screening(1e6) / 8.0, rel=1e-12)

    def test_tail_continuity(self):
        assert tf_screening(9.999e3) == pytest.approx(tf_screening(1.0001e4), rel=1e-3)

    def test_monotone_convex(self):
        x = np.geomspace(1e-4, 5e3, 400)
        phi = tf_screening(x)
        assert np.all(np.diff(phi) < 0)
        assert np.all(phi > 0) and np.all(phi < 1.0)

    def test_ode_residual(self):
        # second derivative by finite differences must satisfy the
        # defining equation to interpolation accuracy (sampling away
        # from the table/asymptote seam at x = 1e4)
        for x in (0.5, 2.0, 10.0, 100.0, 1000.0, 5000.0):
            h = 1e-3 * x
            d2 = (tf_screening(x + h) - 2 * tf_screening(x) + tf_screening(x - h)) / h**2
            rhs = tf_screening(x) ** 1.5 / math.sqrt(x)
            assert d2 == pytest.approx(rhs, rel=5e-4)

    def test_negative_argument_rejected(self):
        with pytest.raises(PotentialError):
            tf_screening(-1.0)


def _w_on_0d(p, E, rho):
    """W with V evaluated on a 0-d array, so that every family formula runs
    on numpy arrays and scalars (the reference for the float path)."""
    r = np.exp(np.asarray(rho, dtype=float))
    return float(2.0 * r * r * (E - p.V(np.asarray(r))))


def _nonzero_mu():
    return st.floats(-1.9, 8.0).filter(lambda mu: abs(mu) > 1e-3)


_POINT_WELLS = st.one_of(
    st.builds(lambda mu, b: PowerLaw(b=math.copysign(b, mu), mu=mu), _nonzero_mu(),
              st.floats(0.1, 5.0)),
    st.builds(lambda kind, Z: parse_potential(f"screened:kind={kind},Z={Z!r}"),
              st.sampled_from(["exp", "inv2", "inv25", "tf"]), st.floats(0.5, 60.0)),
    st.builds(Quarkonium, st.floats(0.05, 0.95), st.floats(0.2, 3.0), st.floats(0.5, 5.0)),
    st.builds(HardWall, st.floats(0.5, 3.0)),
)


# a Yukawa Z = 2 table, drawn on inside its range
_TABLE_R = np.geomspace(1e-4, 40.0, 400)
_TABLE = Tabulated(_TABLE_R, -2.0 * np.exp(-_TABLE_R) / _TABLE_R)


def _rho_list(lo, hi):
    return st.lists(st.floats(lo, hi), min_size=1, max_size=48)


_ARRAY_CASES = st.one_of(
    st.tuples(_POINT_WELLS, _rho_list(-20.0, 20.0)),
    st.tuples(st.just(_TABLE), _rho_list(math.log(1e-4), math.log(40.0))),
)


_POINT_SPECS = ["power:b=1,mu=1.5", "power:b=-1,mu=-1", "screened:kind=exp,Z=50",
                "screened:kind=inv2,Z=1", "screened:kind=inv25,Z=1", "screened:kind=tf,Z=50",
                "quark:alpha=0.5,delta=1,B=3", "wall:R=1"]


class TestPointEvaluation:
    """A float argument takes no detour through 0-d arrays, and gives the
    same bits as the array path."""

    @settings(max_examples=400, deadline=None)
    @given(p=_POINT_WELLS, E=st.floats(-50.0, 50.0), rho=st.floats(-20.0, 20.0))
    def test_float_path_is_bit_identical(self, p, E, rho):
        # V on its own too: in W, E - V can absorb a last-bit difference of V
        r = float(np.exp(rho))
        assert p.V(r) == float(p.V(np.asarray(r)))
        w = p.W(E, float(rho))
        assert w == float(p.W(E, np.asarray(rho)))
        assert w == _w_on_0d(p, E, rho)

    @settings(max_examples=300, deadline=None)
    @given(case=_ARRAY_CASES, E=st.floats(-50.0, 50.0))
    def test_array_path_is_bit_identical(self, case, E):
        # the quadrature evaluates W on arrays of nodes and the searches on
        # floats; covers mu < 0 and mu > 0, every screening, quarkonium, the
        # wall and a table (Python's ** on a float rounds unlike numpy's
        # power on an array in a few per cent of inputs)
        p, rho = case
        assert p.W(E, np.array(rho)).tolist() == [float(p.W(E, x)) for x in rho]

    @pytest.mark.parametrize("spec", _POINT_SPECS)
    def test_float_path_sweep(self, spec):
        # a dense sweep where W is far from 0 and V neither over- nor underflows
        p = parse_potential(spec)
        rho = np.random.default_rng(3).uniform(-8.0, 8.0, 1500).tolist()
        assert [p.W(-0.5, x) for x in rho] == [_w_on_0d(p, -0.5, x) for x in rho]

    @pytest.mark.parametrize("spec", _POINT_SPECS)
    def test_float_gives_no_ndarray(self, spec):
        p = parse_potential(spec)
        assert not isinstance(p.W(-0.5, 0.3), np.ndarray)
        assert not isinstance(p.V(0.3), np.ndarray)

    def test_tf_scalar_branch_matches_array_path(self):
        # the series (x < 1e-6), the spline table and the x^-3 tail (x > 1e4),
        # with both ends of the table itself
        sol = potentials._tf_solution()
        rng = np.random.default_rng(7)
        edges = [0.0, 1e-300]
        for end in (sol.x_min, sol.x_max):
            edges += [math.nextafter(end, 0.0), end, math.nextafter(end, math.inf)]
        x = np.concatenate((edges, 10.0 ** rng.uniform(-12.0, -6.0, 2000),
                            10.0 ** rng.uniform(-6.0, 4.0, 2000), 10.0 ** rng.uniform(4.0, 9.0, 2000)))
        points = [sol.phi(v) for v in x.tolist()]
        assert not any(isinstance(v, np.ndarray) for v in points)
        assert points == sol.phi(x).tolist()
        assert [sol.phi(np.asarray(v)) for v in edges] == points[:len(edges)]

    def test_tf_table_region_matches_spline(self):
        sol = potentials._tf_solution()
        ts = sol._logphi.x
        rng = np.random.default_rng(11)
        t = np.concatenate((ts[:50], ts[-50:], rng.uniform(ts[0], ts[-1], 5000)))
        assert [sol._logphi_at(float(v)) for v in t] == sol._logphi(t).tolist()
