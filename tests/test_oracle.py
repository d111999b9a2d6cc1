import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal
from scipy.optimize import brentq
from scipy.special import ai_zeros, jv

from teff import (
    BracketMiss,
    HardWall,
    NoConvergence,
    Potential,
    PowerLaw,
    QuantumLevel,
    TeffError,
    bracket_bound_state,
    exact_reference_spectrum,
    numerov_eigenvalue,
    parse_potential,
    quantize_energy,
    solve_bound_state,
)
from teff import oracle
from teff.oracle import (
    _RHO_FLOOR,
    _grid,
    _level_grid,
    _matrix,
    _seed,
    _windowed_eigenvalue,
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
                                    rel=1e-9)
        got = solve_bound_state(oscillator, lvl)
        assert got == pytest.approx(exact_reference_spectrum("oscillator", 0.5, lvl),
                                    rel=1e-9)

    def test_hydrogen_2p(self, coulomb):
        assert solve_bound_state(coulomb, QuantumLevel(0, 1, 3)) == \
            pytest.approx(-0.125, abs=1e-6)

    def test_hydrogen_2d_s_states(self, coulomb):
        # lambda = 0: psi tends to a constant at the origin, so the grid
        # must reach far enough in for W itself to vanish
        for n_r in range(3):
            lvl = QuantumLevel(n_r, 0, 2)
            assert solve_bound_state(coulomb, lvl) == \
                pytest.approx(-0.5 / (n_r + 0.5) ** 2, rel=1e-9)

    def test_linear_well_airy(self):
        p = PowerLaw(b=1.0, mu=1.0)
        zeros = ai_zeros(2)[0]
        for n_r in range(2):
            exact = -float(zeros[n_r]) * 2.0 ** (-1.0 / 3.0)
            assert solve_bound_state(p, QuantumLevel(n_r, 0, 3)) == \
                pytest.approx(exact, abs=1e-9)

    def test_hard_wall_bessel(self):
        # l = 0 levels of the unit box are (n pi)^2 / 2
        wall = HardWall(R=1.0)
        for n_r in range(2):
            exact = ((n_r + 1) * math.pi) ** 2 / 2.0
            assert solve_bound_state(wall, QuantumLevel(n_r, 0, 3)) == \
                pytest.approx(exact, rel=1e-9)
        # radii where exp(log R) rounds above R; in general E = j^2 / (2 R^2)
        # with j the (n_r + 1)-th zero of J_lambda
        for R in (2.91162, 3.0):
            for d, l, n_r in ((3, 0, 0), (2, 0, 0), (3, 1, 2)):
                lvl = QuantumLevel(n_r, l, d)
                exact = _bessel_zero(lvl.lam, n_r + 1) ** 2 / (2.0 * R * R)
                assert solve_bound_state(HardWall(R=R), lvl) == \
                    pytest.approx(exact, rel=1e-9)

    def test_oscillator_2s(self, oscillator):
        assert solve_bound_state(oscillator, QuantumLevel(2, 0, 3)) == \
            pytest.approx(5.5, abs=1e-6)

    def test_unreachable_inner_edge(self):
        # at lambda = 0, W ~ r^0.1 vanishes only at radii the matrix cannot
        # represent; at lambda > 0 the e^(lambda rho) decay suffices
        p = PowerLaw(b=-1.0, mu=-1.9)
        with pytest.raises(NoConvergence):
            solve_bound_state(p, QuantumLevel(0, 0, 2))
        assert math.isfinite(solve_bound_state(p, QuantumLevel(0, 0, 3)))

    def test_no_runtime_warning(self, coulomb):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for d in (3, 2):
                solve_bound_state(coulomb, QuantumLevel(0, 0, d))


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

    def test_bracket_up_to_threshold(self, yukawa):
        # at lambda = 0 a window ending at E = 0 has no barrier to decay under
        lvl = QuantumLevel(0, 0, 2)
        assert numerov_eigenvalue(yukawa, lvl, (-2.0, 0.0)) == \
            pytest.approx(solve_bound_state(yukawa, lvl), rel=1e-9)

    def test_threshold_resonance_is_no_level(self):
        # at Z = 1, u = r / (1 + r) solves the E = 0 s-wave equation of
        # -(1 + r)^-2 / r exactly: a zero-energy resonance, not a level
        p = parse_potential("screened:kind=inv2,Z=1")
        with pytest.raises(BracketMiss):
            solve_bound_state(p, QuantumLevel(0, 0, 3))

    def test_auto_bracket(self, coulomb):
        lo, hi = bracket_bound_state(coulomb, QuantumLevel(1, 0, 3))
        assert lo < -0.125 < hi

    def test_no_such_level(self, yukawa):
        with pytest.raises(BracketMiss):
            bracket_bound_state(yukawa, QuantumLevel(5, 3, 3))


def _refinement_grid(p, lvl):
    """(grid, tol) of the h step as ``solve_bound_state`` sets them."""
    e_lo, e_hi, seed, grid = oracle._bracket(p, lvl)
    return _level_grid(p, lvl, grid, e_hi, seed), 1e-14 * max(abs(e_lo), abs(e_hi))


def _seeded(p, lvl, grid, tol):
    """n_r-th eigenvalue on one grid by the seeded window search: a seed
    from the grid coarsened 8-fold, then windows around it."""
    seed = _seed(p, lvl, grid)
    return _windowed_eigenvalue(p, lvl, grid, seed, oracle._WINDOW * abs(seed) + tol, tol)


def _richardson(p, lvl, grid, tol):
    """Richardson value of the level from ``grid`` and its halving."""
    rho_lo, rho_hi, n = grid
    e_h = _seeded(p, lvl, grid, tol)
    e_h2 = _windowed_eigenvalue(p, lvl, (rho_lo, rho_hi, 2 * n), e_h,
                                oracle._WINDOW * abs(e_h) + tol, tol)
    return (4.0 * e_h2 - e_h) / 3.0


def _grid_energies(p, lvl, refinements):
    """Single-grid n_r-th eigenvalues with 2^k times the default number of
    intervals, for each k in ``refinements``."""
    (rho_lo, rho_hi, n), tol = _refinement_grid(p, lvl)
    return [_seeded(p, lvl, (rho_lo, rho_hi, int(n * 2.0**k)), tol) for k in refinements]


def _richardson_drift(p, lvl):
    """Relative change of the Richardson value from grids (h, h/2) to (h/2, h/4)."""
    e1, e2, e4 = _grid_energies(p, lvl, (0, 1, 2))
    coarse = (4.0 * e2 - e1) / 3.0
    fine = (4.0 * e4 - e2) / 3.0
    return abs(fine / coarse - 1.0)


def _index_search(p, lvl, rho_lo, rho_hi, intervals, tol):
    """Reference: the n_r-th eigenvalue by bisecting the whole Gershgorin
    interval for its index, with no seed and no window."""
    d, off = _matrix(p, lvl, rho_lo, rho_hi, intervals)
    return float(eigh_tridiagonal(d, off, eigvals_only=True, select="i",
                                  select_range=(lvl.n_r, lvl.n_r),
                                  lapack_driver="stebz", tol=tol)[0])


@pytest.fixture
def windows(monkeypatch):
    """Records the (intervals, vl, vu, tol) of each dstebz call: a count and
    a window per window tried, the count skipped below the Gershgorin floor."""
    calls = []
    original = oracle._window

    def recorded(d, off, vl, vu, tol):
        calls.append((len(d), vl, vu, tol))
        return original(d, off, vl, vu, tol)

    monkeypatch.setattr(oracle, "_window", recorded)
    return calls


@pytest.fixture
def index_searches(monkeypatch):
    """Records the (select_range, intervals, tol) of each index search."""
    calls = []
    original = oracle.eigh_tridiagonal

    def counted(d, *args, **kwargs):
        calls.append((kwargs["select_range"], len(d), kwargs["tol"]))
        return original(d, *args, **kwargs)

    monkeypatch.setattr(oracle, "eigh_tridiagonal", counted)
    return calls


class TestWindowSearch:
    """The seeded window search against the index search it replaces."""

    @staticmethod
    def _grid_of(p, lvl):
        """(rho_lo, rho_hi, intervals, tol) as ``solve_bound_state`` sets them."""
        grid, tol = _refinement_grid(p, lvl)
        return (*grid, tol)

    @staticmethod
    def _agrees(p, lvl, rho_lo, rho_hi, intervals, tol):
        return abs(_seeded(p, lvl, (rho_lo, rho_hi, intervals), tol)
                   - _index_search(p, lvl, rho_lo, rho_hi, intervals, tol)) <= 2.0 * tol

    @pytest.mark.parametrize("p,lvl", [
        (PowerLaw(b=-1.0, mu=-1.0), QuantumLevel(0, 0, 2)),   # lambda = 0
        (PowerLaw(b=-1.0, mu=-1.0), QuantumLevel(2, 0, 2)),
        (HardWall(R=1.0), QuantumLevel(2, 1, 3)),
        (PowerLaw(b=1.0, mu=7.9), QuantumLevel(0, 1, 3)),
        (PowerLaw(b=-1.0, mu=-1.9), QuantumLevel(0, 0, 3)),
    ], ids=["coulomb-2d-s", "coulomb-2d-3s", "wall", "mu7.9", "mu-1.9"])
    def test_matches_index_search(self, p, lvl):
        rho_lo, rho_hi, n, tol = self._grid_of(p, lvl)
        for k in (1, 2):
            assert self._agrees(p, lvl, rho_lo, rho_hi, k * n, tol)

    def test_grid_at_the_floor(self):
        # the mu = -1.9 case above runs on the deepest grid the matrix allows
        rho_lo, _, _, _ = self._grid_of(PowerLaw(b=-1.0, mu=-1.9), QuantumLevel(0, 0, 3))
        assert rho_lo < _RHO_FLOOR + 5.0

    def test_missed_window_is_widened(self, windows):
        # this excited Yukawa level lies more than 1e-3 |E| from its seed
        p, lvl = parse_potential("screened:kind=exp,Z=50"), QuantumLevel(4, 1, 3)
        grid = self._grid_of(p, lvl)
        windows.clear()
        assert self._agrees(p, lvl, *grid)
        assert len(windows) > 2

    def test_forced_widening(self, monkeypatch, windows):
        monkeypatch.setattr(oracle, "_WINDOW", 1e-12)
        p, lvl = PowerLaw(b=1.0, mu=7.9), QuantumLevel(0, 1, 3)
        grid = self._grid_of(p, lvl)
        windows.clear()
        assert self._agrees(p, lvl, *grid)
        assert len(windows) > 2

    def test_window_below_gershgorin_floor(self, monkeypatch, windows, index_searches):
        # at lambda > 1 the Gershgorin floor is positive; a window reaching
        # ten times the level below its centre ends below it, where the
        # count is 0.  The one index search runs on the grid coarsened
        # 64-fold; the seed grid and the grid h each take one window, no count
        p, lvl = PowerLaw(b=1.0, mu=7.9), QuantumLevel(0, 1, 3)
        rho_lo, rho_hi, n, tol = self._grid_of(p, lvl)
        for k in (1, 8):
            d, off = _matrix(p, lvl, rho_lo, rho_hi, n // k)
            assert 0.0 < np.min(d + np.r_[off, 0.0] + np.r_[0.0, off]) < 5.4
        monkeypatch.setattr(oracle, "_WINDOW", 10.0)
        windows.clear()
        index_searches.clear()
        assert self._agrees(p, lvl, rho_lo, rho_hi, n, tol)
        assert n // 64 >= 64
        assert [size for _, size, _ in index_searches] == [n // 64]
        assert [size for size, *_ in windows] == [n // 8, n]


class TestOneIndexSearch:
    """A level costs one index search, on the bracket's grid coarsened
    64-fold; a window around its value gives the seed on the grid
    coarsened 8-fold.  The bracket decides with a Sturm count, the h
    window is centred on the seed and the h/2 window on the Richardson
    prediction."""

    @pytest.mark.parametrize("spec,lvl", [
        ("power:b=-1,mu=-1", QuantumLevel(0, 0, 3)),
        ("screened:kind=exp,Z=50", QuantumLevel(2, 3, 3)),
    ])
    def test_threshold_well_searches_once(self, index_searches, spec, lvl):
        p = parse_potential(spec)
        _, _, _, (_, _, n) = oracle._bracket(p, lvl)
        index_searches.clear()
        solve_bound_state(p, lvl)
        assert [(r, size) for r, size, _ in index_searches] == [((lvl.n_r, lvl.n_r), n // 64)]

    @pytest.mark.parametrize("Z", [1.0, 10.0])
    def test_seed_tolerance_follows_the_level(self, index_searches, windows, Z):
        # below a threshold the window top lies 1e-9 under it, so a seed
        # tolerance taken relative to the window top would bisect the seed
        # to ~1e-23; both seed grids are bisected to ~1e-9 of the level
        p, lvl, e = PowerLaw(b=-Z, mu=-1.0), QuantumLevel(0, 0, 3), -0.5 * Z * Z
        _, e_hi, _, (_, _, n) = oracle._bracket(p, lvl)
        assert abs(e_hi) < 1e-8 * abs(e)
        index_searches.clear()
        windows.clear()
        solve_bound_state(p, lvl)
        # a count's tolerance spans its whole window, so it bisects nothing
        seed_tols = [tol for _, _, tol in index_searches] + \
                    [tol for size, vl, vu, tol in windows if size == n // 8 and tol < vu - vl]
        assert len(seed_tols) >= 2
        assert all(1e-10 * abs(e) <= tol <= 1e-8 * abs(e) for tol in seed_tols)

    @pytest.mark.parametrize("p,lvl", [
        (PowerLaw(b=-1.0, mu=-1.0), QuantumLevel(1, 0, 3)),
        (HardWall(R=1.0), QuantumLevel(2, 1, 3)),
        (PowerLaw(b=1.0, mu=7.9), QuantumLevel(0, 1, 3)),
    ], ids=["coulomb", "wall", "mu7.9"])
    def test_same_as_refining_the_bracket(self, p, lvl):
        # the hand-off of the bracket's seed changes no value
        e = numerov_eigenvalue(p, lvl, bracket_bound_state(p, lvl))
        assert solve_bound_state(p, lvl) == pytest.approx(e, rel=1e-12, abs=0.0)

    def test_missed_h2_window_is_widened(self, monkeypatch, windows, index_searches):
        # a zero-width h/2 window around the prediction misses the level;
        # the widened window still finds the 2n-grid eigenvalue.  The level
        # runs one index search, on the bracket's grid coarsened 64-fold,
        # and three window searches: on that grid coarsened 8-fold, on the
        # grid h and on the grid h/2
        monkeypatch.setattr(oracle, "_PREDICTED_WINDOW", 0.0)
        p, lvl = PowerLaw(b=1.0, mu=7.9), QuantumLevel(0, 1, 3)
        _, _, _, (rho_lo, rho_hi, n) = oracle._bracket(p, lvl)
        found = []
        original = oracle._windowed_eigenvalue

        def recorded(p, level, grid, centre, delta, tol):
            start = len(windows)
            e = original(p, level, grid, centre, delta, tol)
            found.append((grid, tol, e, len(windows) - start))
            return e

        monkeypatch.setattr(oracle, "_windowed_eigenvalue", recorded)
        index_searches.clear()
        solve_bound_state(p, lvl)
        assert [size for _, size, _ in index_searches] == [n // 64]
        (seed_grid, _, _, _), (grid, tol, _, _), (grid2, tol2, e_h2, calls) = found
        assert seed_grid == (rho_lo, rho_hi, n // 8)
        assert grid[0] == rho_lo and grid[2] <= n
        assert grid2 == (grid[0], grid[1], 2 * grid[2]) and tol2 == tol
        assert calls > 2
        assert abs(e_h2 - _index_search(p, lvl, *grid2, tol)) <= 2.0 * tol

    def test_level_grid_keeps_the_nodes(self):
        # the cut grid ends at a node of the window's grid, well short of
        # the window top's decay margin for this deep level; every node is
        # a multiple of the step
        p, lvl = parse_potential("power:b=-1,mu=-1"), QuantumLevel(0, 0, 3)
        _, e_hi, seed, grid = oracle._bracket(p, lvl)
        rho_lo, rho_hi, n = grid
        cut_lo, cut_hi, m = _level_grid(p, lvl, grid, e_hi, seed)
        assert cut_lo == rho_lo and m < 0.9 * n
        assert rho_lo / oracle._STEP == int(rho_lo / oracle._STEP)
        assert rho_hi == rho_lo + n * oracle._STEP and cut_hi == rho_lo + m * oracle._STEP

    def test_count_decides_near_threshold(self):
        # at this strength the l = 1 Yukawa level has just left the n grid's
        # spectrum, while the coarse seed grid still binds it 2e-6 below
        # e_hi; the count on the n grid decides
        lvl, e_hi = QuantumLevel(0, 1, 3), -1e-9
        p = parse_potential("screened:kind=exp,Z=4.54097")
        grid = _grid(p, lvl, e_hi, e_hi)
        assert _seed(p, lvl, grid) < e_hi
        assert _index_search(p, lvl, *grid, 1e-14 * abs(e_hi)) >= e_hi
        with pytest.raises(BracketMiss, match="holds no level"):
            bracket_bound_state(p, lvl)
        # slightly deeper, the level lies 1e-7 under e_hi on both grids
        lo, hi = bracket_bound_state(parse_potential("screened:kind=exp,Z=4.54098"), lvl)
        assert lo < hi == e_hi

    def test_miss_below_an_accumulating_threshold(self):
        # this mu < 0 well holds infinitely many levels; the message names
        # the window top, not a missing level
        p = parse_potential("power:b=-1,mu=-1.8")
        with pytest.raises(BracketMiss, match="too close to the threshold") as miss:
            solve_bound_state(p, QuantumLevel(2, 3, 3))
        assert "window top -1e-09" in str(miss.value)
        with pytest.raises(BracketMiss, match="holds no level"):
            solve_bound_state(parse_potential("screened:kind=exp,Z=1"), QuantumLevel(5, 3, 3))


class TestInnerEdge:
    """At lambda > 0 the grid must start left of the inner turning point,
    although near a threshold the W maximum of a slowly decaying tail lies
    far outside the well."""

    @pytest.mark.parametrize("spec,n_r,l,d", [
        ("power:b=-1,mu=-0.6", 0, 1, 3),
        ("power:b=-1,mu=-0.4", 0, 1, 3),
        ("power:b=-1,mu=-0.8", 0, 2, 3),
        ("power:b=1,mu=0.05", 0, 1, 3),
    ])
    def test_agrees_with_quantization(self, spec, n_r, l, d):
        p, lvl = parse_potential(spec), QuantumLevel(n_r, l, d)
        assert solve_bound_state(p, lvl) == \
            pytest.approx(quantize_energy(p, lvl).E, rel=0.015)

    @settings(max_examples=12, deadline=None)
    @given(mu=st.one_of(st.floats(-1.8, -0.25), st.floats(0.05, 8.0)),
           d=st.sampled_from([2, 3]), n_r=st.integers(0, 2), l=st.integers(0, 2))
    @example(mu=-0.6, d=3, n_r=0, l=1)
    def test_levels_rise_with_l(self, mu, d, n_r, l):
        # b only rescales the energies of a power law, so b = +-1 covers all
        p = PowerLaw(b=math.copysign(1.0, mu), mu=mu)
        try:
            lower = solve_bound_state(p, QuantumLevel(n_r, l, d))
            upper = solve_bound_state(p, QuantumLevel(n_r, l + 1, d))
        except (NoConvergence, BracketMiss):
            # the known limits at mu -> -1.8: the lambda = 0 inner region
            # lies below _RHO_FLOOR, and the highest levels lie above the
            # bracket's top 1e-9 below the threshold
            if mu > -1.75:
                raise
            reject()
        assert lower < upper


class TestConvergence:
    def test_second_order_decay(self):
        # the Richardson step assumes an h^2 error: each halving of the
        # step should shrink the single-grid error about 4 times
        airy = -float(ai_zeros(1)[0][0]) * 2.0 ** (-1.0 / 3.0)
        for p, lvl, exact in ((PowerLaw(b=1.0, mu=1.0), QuantumLevel(0, 0, 3), airy),
                              (PowerLaw(b=-1.0, mu=-1.0), QuantumLevel(1, 1, 3), -1.0 / 18.0)):
            errs = [abs(e - exact) for e in _grid_energies(p, lvl, (-2, -1, 0))]
            assert 3.0 < errs[0] / errs[1] < 5.0
            assert 3.0 < errs[1] / errs[2] < 5.0

    def test_grid_halving_threshold(self, coulomb):
        assert _richardson_drift(coulomb, QuantumLevel(1, 1, 3)) < 1e-9

    def test_screened_channel(self):
        # a screened level has no closed form; check stability under halving
        p = parse_potential("screened:kind=exp,Z=10")
        assert _richardson_drift(p, QuantumLevel(1, 0, 3)) < 1e-9


_EDGE_CASES = [
    (PowerLaw(b=-1.0, mu=-1.0), QuantumLevel(0, 0, 2)),   # lambda = 0
    (parse_potential("screened:kind=exp,Z=5"), QuantumLevel(2, 0, 2)),
    (PowerLaw(b=-1.0, mu=-1.0), QuantumLevel(1, 1, 3)),
    (HardWall(R=1.0), QuantumLevel(2, 1, 3)),
]
_EDGE_IDS = ["coulomb-2d-s", "yukawa-2d-s", "coulomb-p", "wall"]


class TestGridEdges:
    """The step is exactly ``_STEP``, so a grid's length moves only its free
    edge, and the edges sit where psi has decayed past double precision."""

    @pytest.mark.parametrize("p,lvl", _EDGE_CASES, ids=_EDGE_IDS)
    def test_free_edge_moves_no_value(self, p, lvl):
        # psi = 0 sits on a hard wall, so there the left edge is the free one
        (rho_lo, rho_hi, n), tol = _refinement_grid(p, lvl)
        e = _richardson(p, lvl, (rho_lo, rho_hi, n), tol)
        for k in (1, 5, 29):
            if isinstance(p, HardWall):
                grid = (rho_lo - k * oracle._STEP, rho_hi, n + k)
            else:
                grid = (rho_lo, rho_hi + k * oracle._STEP, n + k)
            assert _richardson(p, lvl, grid, tol) == pytest.approx(e, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("p,lvl", _EDGE_CASES + [
        (PowerLaw(b=0.5, mu=2.0), QuantumLevel(2, 1, 3)),
        (parse_potential("screened:kind=tf,Z=20"), QuantumLevel(1, 1, 3)),
    ], ids=_EDGE_IDS + ["oscillator", "thomas-fermi"])
    def test_wider_margin_moves_no_value(self, monkeypatch, p, lvl):
        # cut where psi has decayed by e^-M, a level moves by about e^-2M of
        # itself, below 2^-53 at the margin used; 35 e-folds give the same
        e = solve_bound_state(p, lvl)
        monkeypatch.setattr(oracle, "_DECAY_MARGIN", 35.0)
        assert solve_bound_state(p, lvl) == pytest.approx(e, rel=1e-12, abs=0.0)


class _Rescaled(Potential):
    """c V(sqrt(c) r): the same well with every energy multiplied by c."""

    def __init__(self, p, c):
        self.p, self.c, self.a = p, c, math.sqrt(c)

    def V(self, r):
        return self.c * self.p.V(self.a * np.asarray(r, dtype=float))

    def dV(self, r):
        return self.c * self.a * self.p.dV(self.a * np.asarray(r, dtype=float))

    def d2V(self, r):
        return self.c * self.c * self.p.d2V(self.a * np.asarray(r, dtype=float))

    def kappa(self, r):
        return self.p.kappa(self.a * np.asarray(r, dtype=float))

    def asymptotic_value(self):
        return self.c * self.p.asymptotic_value()

    def reference_energy(self):
        return self.c * self.p.reference_energy()

    def energy_window(self):
        return tuple(None if e is None else self.c * e for e in self.p.energy_window())

    def energy_scale(self):
        return self.c * self.p.energy_scale()


_D = st.integers(2, 5)
_N_R = st.integers(0, 3)
_L = st.integers(0, 3)
_SCREENED = st.builds(lambda kind, Z: parse_potential(f"screened:kind={kind},Z={Z:.6g}"),
                      st.sampled_from(["exp", "inv2", "inv25", "tf"]),
                      st.floats(1.0, 50.0))
_QUARK = st.builds(lambda a, delta, B: parse_potential(
                       f"quark:alpha={a:.6g},delta={delta:.6g},B={B:.6g}"),
                   st.floats(0.1, 0.9), st.floats(0.5, 2.0), st.floats(0.5, 5.0))


def _power(mu_min):
    return st.builds(lambda mu, b: PowerLaw(b=math.copysign(b, mu), mu=mu),
                     st.floats(mu_min, 8.0).filter(lambda mu: abs(mu) > 1e-3),
                     st.floats(0.2, 5.0))


class TestProperties:
    @settings(max_examples=15, deadline=None)
    @given(Z=st.floats(0.5, 5.0), d=_D, n_r=_N_R, l=_L)
    def test_coulomb_closed_form(self, Z, d, n_r, l):
        lvl = QuantumLevel(n_r, l, d)
        assert solve_bound_state(PowerLaw(b=-Z, mu=-1.0), lvl) == \
            pytest.approx(exact_reference_spectrum("coulomb", Z, lvl), rel=1e-8)

    @settings(max_examples=15, deadline=None)
    @given(Z=st.floats(0.5, 5.0), n_r=_N_R)
    def test_coulomb_2d_s_closed_form(self, Z, n_r):
        # lambda = 0: psi keeps its weight on the deep-left rows, where a
        # step that is not a binary fraction moves the level by up to 2e-8
        lvl = QuantumLevel(n_r, 0, 2)
        assert solve_bound_state(PowerLaw(b=-Z, mu=-1.0), lvl) == \
            pytest.approx(exact_reference_spectrum("coulomb", Z, lvl), rel=1e-9)

    @settings(max_examples=15, deadline=None)
    @given(b=st.floats(0.2, 3.0), d=_D, n_r=_N_R, l=_L)
    def test_oscillator_closed_form(self, b, d, n_r, l):
        lvl = QuantumLevel(n_r, l, d)
        assert solve_bound_state(PowerLaw(b=b, mu=2.0), lvl) == \
            pytest.approx(exact_reference_spectrum("oscillator", b, lvl), rel=1e-8)

    @settings(max_examples=15, deadline=None)
    @given(R=st.floats(0.5, 3.0), d=_D, n_r=_N_R, l=_L)
    def test_wall_closed_form(self, R, d, n_r, l):
        lvl = QuantumLevel(n_r, l, d)
        exact = _bessel_zero(lvl.lam, n_r + 1) ** 2 / (2.0 * R * R)
        assert solve_bound_state(HardWall(R=R), lvl) == pytest.approx(exact, rel=1e-8)

    @settings(max_examples=8, deadline=None)
    @given(p=st.one_of(_SCREENED, _QUARK), d=st.sampled_from([2, 3, 5]), l=st.integers(0, 2))
    def test_monotone_in_n_r(self, p, d, l):
        # levels rise strictly with n_r, and a well that cannot hold a
        # level holds none above it either
        energies = []
        for n_r in range(3):
            try:
                energies.append(solve_bound_state(p, QuantumLevel(n_r, l, d)))
            except BracketMiss:
                break
        for n_r in range(len(energies) + 1, 4):
            with pytest.raises(BracketMiss):
                solve_bound_state(p, QuantumLevel(n_r, l, d))
        assert all(a < b for a, b in zip(energies, energies[1:]))

    @settings(max_examples=10, deadline=None)
    @given(p=st.one_of(_SCREENED, _QUARK, _power(-1.5)), c=st.floats(0.1, 10.0),
           d=st.sampled_from([2, 3, 5]), n_r=st.integers(0, 2), l=st.integers(0, 2))
    def test_energy_scaling(self, p, c, d, n_r, l):
        # V(r) -> c V(sqrt(c) r) is V -> cV combined with r -> r / sqrt(c):
        # the radial equation in rho keeps its form and E -> c E
        lvl = QuantumLevel(n_r, l, d)
        try:
            e = solve_bound_state(p, lvl)
        except TeffError as exc:
            with pytest.raises(type(exc)):
                solve_bound_state(_Rescaled(p, c), lvl)
            return
        assert solve_bound_state(_Rescaled(p, c), lvl) == pytest.approx(c * e, rel=1e-8)

    @settings(max_examples=20, deadline=None)
    @given(p=st.one_of(_SCREENED, _QUARK, _power(-1.99)), d=_D,
           n_r=st.integers(0, 4), l=st.integers(0, 4))
    def test_failures_are_classified(self, p, d, n_r, l):
        try:
            e = solve_bound_state(p, QuantumLevel(n_r, l, d))
        except TeffError:
            return
        assert math.isfinite(e)
