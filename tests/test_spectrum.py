import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq
from scipy.special import ai_zeros

from teff import spectrum
from teff import (
    NoBoundState,
    NoClassicalRegion,
    NumericsError,
    PowerLaw,
    QuantumLevel,
    TeffError,
    analyze_slice,
    chi_profile,
    diagram_data,
    enumerate_bound_states,
    exact_reference_spectrum,
    parse_potential,
    power_law_scaling_check,
    quantize_energy,
    solve_bound_state,
)
from teff.quadrature import action_I
from teff.transforms import phi_additive


class TestReferenceExactness:
    @pytest.mark.parametrize("d", [2, 3, 5])
    @pytest.mark.parametrize("n_r,l", [(0, 0), (1, 1), (3, 2), (2, 3)])
    def test_coulomb(self, coulomb, d, n_r, l):
        lvl = QuantumLevel(n_r, l, d)
        entry = quantize_energy(coulomb, lvl)
        assert entry.E == pytest.approx(exact_reference_spectrum("coulomb", 1.0, lvl),
                                        rel=1e-6)
        assert entry.phi == pytest.approx(1.0, abs=1e-8)
        assert entry.residual < 1e-8 * max(1.0, entry.T)

    @pytest.mark.parametrize("d", [2, 3, 5])
    @pytest.mark.parametrize("n_r,l", [(0, 0), (1, 1), (3, 3)])
    def test_oscillator(self, oscillator, d, n_r, l):
        lvl = QuantumLevel(n_r, l, d)
        entry = quantize_energy(oscillator, lvl)
        assert entry.E == pytest.approx(
            exact_reference_spectrum("oscillator", 0.5, lvl), rel=1e-6)

    def test_oscillator_b1_ground(self):
        # V = r^2: E = 2 sqrt(2) (nu + lam/2) -> ground 3/sqrt(2)
        entry = quantize_energy(PowerLaw(b=1.0, mu=2.0), QuantumLevel(0, 0, 3))
        assert entry.E == pytest.approx(3.0 * math.sqrt(2.0) / 2.0, rel=1e-8)


class TestLinearWell:
    def test_ground_state_documented_accuracy(self):
        # the exact ground state is the first Airy zero scaled by 2^(-1/3);
        # this method predicts it 1.1% high, short of the 0.5% accuracy
        # target the acceptance battery pins for the lowest levels
        airy = float(ai_zeros(1)[0][0])
        exact = -airy * 2.0 ** (-1.0 / 3.0)
        entry = quantize_energy(PowerLaw(b=1.0, mu=1.0), QuantumLevel(0, 0, 3))
        assert entry.E == pytest.approx(1.87698, abs=2e-4)  # frozen solver value
        assert abs(entry.E / exact - 1.0) < 0.015

    def test_higher_levels_tighten(self):
        airy = [-z * 2.0 ** (-1.0 / 3.0) for z in ai_zeros(3)[0]]
        p = PowerLaw(b=1.0, mu=1.0)
        devs = []
        for n_r in range(3):
            entry = quantize_energy(p, QuantumLevel(n_r, 0, 3))
            devs.append(abs(entry.E / airy[n_r] - 1.0))
        assert devs[2] < devs[0]
        assert devs[2] < 5e-3


class TestScreened:
    def test_capacity_exhausted(self, yukawa):
        # a unit-strength Yukawa well holds one s level and nothing with l=3
        with pytest.raises(NoBoundState):
            quantize_energy(yukawa, QuantumLevel(0, 3, 3))

    def test_enumeration_sorted(self):
        p = parse_potential("screened:kind=exp,Z=10")
        states = enumerate_bound_states(p, -0.01, 3, 2)
        energies = [s.E for s in states]
        assert energies == sorted(energies)
        assert all(s.residual < 1e-8 * max(1.0, s.T) for s in states)

    def test_t_ordering_consistency(self):
        # sorting by energy and sorting by the T actually used agree
        p = parse_potential("screened:kind=exp,Z=30")
        states = enumerate_bound_states(p, -0.05, 3, 3)
        by_e = [(s.n_r, s.l) for s in states]
        by_t = [(s.n_r, s.l) for s in sorted(states, key=lambda s: s.T)]
        assert by_e == by_t

    def test_monotone_capacity(self):
        counts = []
        for z in (10, 30, 50):
            p = parse_potential(f"screened:kind=exp,Z={z}")
            counts.append(len(enumerate_bound_states(p, -0.05, 3, 2)))
        assert counts == sorted(counts)
        assert counts[0] < counts[-1]

    def test_deep_levels_coulomb_like(self):
        # the deepest Yukawa level approaches the bare Coulomb ground state
        p = parse_potential("screened:kind=exp,Z=50")
        entry = quantize_energy(p, QuantumLevel(0, 0, 3))
        assert entry.E == pytest.approx(-0.5 * 50**2, rel=0.05)
        assert entry.phi < 1.1


_SCREENED = st.builds(lambda kind, Z: parse_potential(f"screened:kind={kind},Z={Z:.6g}"),
                      st.sampled_from(["exp", "inv2", "inv25", "tf"]),
                      st.floats(1.0, 60.0))
_QUARK = st.builds(lambda a, delta, B: parse_potential(
                       f"quark:alpha={a:.6g},delta={delta:.6g},B={B:.6g}"),
                   st.floats(0.1, 0.9), st.floats(0.5, 2.0), st.floats(0.5, 5.0))

# (spec, cap) pairs whose enumeration with l <= 1 holds a few levels
_SPEC_CAPS = st.one_of(
    st.builds(lambda kind, Z, c: (f"screened:kind={kind},Z={Z:.6g}", -c * Z * Z),
              st.sampled_from(["exp", "inv2", "inv25"]), st.floats(5.0, 40.0),
              st.floats(0.001, 0.03)),
    st.builds(lambda a, B, c: (f"quark:alpha={a:.6g},delta=1,B={B:.6g}", c * B),
              st.floats(0.2, 0.8), st.floats(1.0, 5.0), st.floats(0.5, 2.5)),
    st.builds(lambda mu, c: (f"power:b=1,mu={mu:.6g}", c * math.exp(mu)),
              st.floats(0.5, 3.0), st.floats(1.5, 4.0)))


def _outcome(fn, *args, **kwargs):
    """What fn returns, or the type and message of the TeffError it raises."""
    try:
        return fn(*args, **kwargs)
    except TeffError as exc:
        return type(exc), str(exc)


class TestHistoryIndependence:
    """What a potential already holds changes no level and no profile."""

    @settings(max_examples=10, deadline=None)
    @given(spec_cap=_SPEC_CAPS, n_r=st.integers(0, 1), l=st.integers(0, 2),
           k=st.integers(0, 30))
    @example(spec_cap=("screened:kind=exp,Z=50", -0.05), n_r=1, l=1, k=17)
    @example(spec_cap=("quark:alpha=0.5,delta=1,B=3", 8.0), n_r=0, l=2, k=12)
    def test_charted_potential_gives_fresh_values(self, spec_cap, n_r, l, k):
        spec, cap = spec_cap
        used = parse_potential(spec)
        grid = used.default_energy_grid()
        E = grid[k % len(grid)]
        levels = [QuantumLevel(a, b, 3) for a in range(3) for b in range(3)]
        diagram_data(levels, (0.1, 2.2), [(used, grid)])
        _outcome(chi_profile, used, 0.5 * (grid[0] + grid[1]))
        assert len(used.held_energies()) > len(grid)

        lvl = QuantumLevel(n_r, l, 3)
        fresh = lambda: parse_potential(spec)
        assert _outcome(quantize_energy, used, lvl) == _outcome(quantize_energy, fresh(), lvl)
        assert (_outcome(enumerate_bound_states, used, cap, 3, 1)
                == _outcome(enumerate_bound_states, fresh(), cap, 3, 1))
        assert _outcome(chi_profile, used, E) == _outcome(chi_profile, fresh(), E)


class TestScalingCheck:
    @pytest.mark.parametrize("mu,slope", [(1.0, 2.0 / 3.0), (2.0, 1.0), (4.0, 4.0 / 3.0)])
    def test_slope(self, mu, slope):
        levels = [QuantumLevel(n_r, l, 3) for n_r in range(3) for l in range(3)]
        rep = power_law_scaling_check(1.0, mu, 3, levels)
        assert rep.slope_ok
        assert rep.expected_slope == pytest.approx(slope)
        # the slope holds by construction of the closed-form levels; each
        # level's residual on the slice at its own E is what certifies them
        assert rep.residual_ok and len(rep.residuals) == len(levels)
        assert max(rep.residuals) <= 1e-12

    def test_convexity_sign(self):
        levels = [QuantumLevel(0, l, 3) for l in range(5)]
        rep4 = power_law_scaling_check(1.0, 4.0, 3, levels)
        assert rep4.convexity_ok and rep4.expected_sign == 1
        rep1 = power_law_scaling_check(1.0, 1.0, 3, levels)
        assert rep1.convexity_ok and rep1.expected_sign == -1

    def test_domain(self):
        with pytest.raises(ValueError):
            power_law_scaling_check(-1.0, -1.0, 3, [QuantumLevel(0, 0, 3)])


class TestEnumerateReferences:
    def test_coulomb_degenerate_pair(self, coulomb):
        # below -0.1 the Coulomb well exposes n = 1 and the degenerate n = 2 pair
        states = enumerate_bound_states(coulomb, -0.1, 3, 2)
        assert [(s.n_r, s.l) for s in states[:1]] == [(0, 0)]
        assert {(s.n_r, s.l) for s in states[1:]} == {(1, 0), (0, 1)}
        assert states[1].E == pytest.approx(-0.125, rel=1e-9)
        assert states[2].E == pytest.approx(-0.125, rel=1e-9)


class TestLowDimensionalChannels:
    def test_screened_d2_s_channel(self):
        # lambda = 0 decouples T from the slope: one inner solve suffices
        p = parse_potential("screened:kind=exp,Z=10")
        entry = quantize_energy(p, QuantumLevel(0, 0, 2))
        assert entry.iterations == 1
        assert entry.T == 0.5
        assert entry.E < -100.0  # near the 2d Coulomb-like ground -2 Z^2

    def test_d2_enumeration(self):
        p = parse_potential("screened:kind=exp,Z=10")
        states = enumerate_bound_states(p, -0.05, 2, 1)
        assert states and [s.E for s in states] == sorted(s.E for s in states)


class TestSharedSlices:
    """One enumeration shares its slices and moments across levels."""

    @pytest.mark.parametrize("spec,emax", [("screened:kind=exp,Z=50", -0.05),
                                           ("quark:alpha=0.5,delta=1,B=3", 8.0)])
    def test_enumeration_equals_single_levels(self, spec, emax):
        # each single level solved on a potential of its own
        states = enumerate_bound_states(parse_potential(spec), emax, 3, 1)
        assert len(states) >= 4
        assert states == [quantize_energy(parse_potential(spec), QuantumLevel(s.n_r, s.l, 3))
                          for s in states]

    def test_no_energy_analysed_twice(self, slice_counts):
        enumerate_bound_states(parse_potential("screened:kind=exp,Z=10"), -0.05, 3, 1)
        assert slice_counts and max(slice_counts.values()) == 1

    def test_nan_cap_solves_nothing(self, monkeypatch):
        def solve(*args, **kwargs):
            raise AssertionError("a level was solved")

        monkeypatch.setattr(spectrum, "quantize_energy", solve)
        with pytest.raises(ValueError, match="NaN"):
            enumerate_bound_states(PowerLaw(b=1.0, mu=2.0), math.nan, 3, 0)

    @pytest.mark.parametrize("spec", ["power:b=1,mu=2", "wall:R=1"])
    def test_infinite_cap_without_threshold_solves_nothing(self, monkeypatch, spec):
        # a well with no continuum threshold holds infinitely many levels
        def solve(*args, **kwargs):
            raise AssertionError("a level was solved")

        monkeypatch.setattr(spectrum, "quantize_energy", solve)
        with pytest.raises(ValueError, match="finite"):
            enumerate_bound_states(parse_potential(spec), math.inf, 3, 0)

    def test_infinite_cap_below_threshold(self):
        # the threshold at E = 0 already ends every channel
        p = parse_potential("screened:kind=exp,Z=10")
        states = enumerate_bound_states(p, math.inf, 3, 1)
        assert len(states) >= 3
        assert states == enumerate_bound_states(p, 0.0, 3, 1)

    @pytest.mark.parametrize("spec", ["power:b=-1,mu=-1", "power:b=-2,mu=-0.5"])
    @pytest.mark.parametrize("e_max", [0.0, 0.3, math.inf])
    def test_cap_at_accumulation_point_solves_nothing(self, monkeypatch, spec, e_max):
        # levels of a slowly decaying tail pile up at E = 0, so a cap there
        # holds infinitely many of them
        def solve(*args, **kwargs):
            raise AssertionError("a level was solved")

        monkeypatch.setattr(spectrum, "quantize_energy", solve)
        with pytest.raises(ValueError, match="accumulate"):
            enumerate_bound_states(parse_potential(spec), e_max, 3, 0)

    def test_cap_below_accumulation_point(self):
        states = enumerate_bound_states(PowerLaw(b=-1.0, mu=-1.0), -0.1, 3, 1)
        assert [s.E for s in states] == pytest.approx([-0.5, -0.125, -0.125], rel=1e-8)


class TestCapRule:
    """An enumeration solves no level above its cap."""

    @pytest.mark.parametrize("spec,e_max", [("power:b=1,mu=2", -1.0), ("power:b=1,mu=2", 0.0),
                                            ("wall:R=1", 0.0), ("wall:R=1", -1.0),
                                            ("screened:kind=exp,Z=5", -1e6)])
    def test_cap_at_or_below_the_floor_solves_nothing(self, monkeypatch, slice_counts,
                                                      spec, e_max):
        # the energy window's floor lies below every level: no slice at the
        # cap is analysed, where a confining well has no classical region
        def solve(*args, **kwargs):
            raise AssertionError("a level was solved")

        monkeypatch.setattr(spectrum, "quantize_energy", solve)
        assert enumerate_bound_states(parse_potential(spec), e_max, 3, 1) == []
        assert not slice_counts

    @pytest.mark.parametrize("spec,e_max", [("screened:kind=exp,Z=50", -0.3),
                                            ("quark:alpha=0.5,delta=1,B=3", 8.0),
                                            ("power:b=-1,mu=-1", -0.025)])
    def test_level_above_the_cap_is_not_solved(self, monkeypatch, spec, e_max):
        # one root per level below the cap; F(e_max) < 0 rejects the next
        # level of each channel before any root search
        roots = []

        def recorded(*args, **kwargs):
            roots.append(brentq(*args, **kwargs))
            return roots[-1]

        monkeypatch.setattr(spectrum, "brentq", recorded)
        states = enumerate_bound_states(parse_potential(spec), e_max, 3, 2)
        assert len(states) >= 3
        assert sorted(roots) == [s.E for s in states]

    @pytest.mark.parametrize("spec,e_max", [("power:b=1,mu=1", 5.0), ("wall:R=1", 30.0)])
    def test_closed_form_level_above_the_cap_is_not_computed(self, monkeypatch, slice_counts,
                                                             spec, e_max):
        # no root is searched, and no slice above the cap is analysed: the
        # reference slice and one slice per level below the cap, where its
        # residual is taken
        def solve(*args, **kwargs):
            raise AssertionError("a root was searched")

        monkeypatch.setattr(spectrum, "brentq", solve)
        p = parse_potential(spec)
        states = enumerate_bound_states(p, e_max, 3, 2)
        assert len(states) >= 3
        assert sorted(E for _, E in slice_counts) == sorted(
            [s.E for s in states] + [p.reference_energy()])

    def test_cap_far_below_the_spectrum_is_empty(self):
        # no slice reaches E = -1e50 (W <= 0 on the whole admissible grid),
        # so the cap is tested only once a level lies below it
        assert enumerate_bound_states(PowerLaw(b=-1.0, mu=-1.0), -1e50, 3, 1) == []

    def test_mu_gap_still_raises(self):
        # V = -r^-0.1 puts the W maximum of the bracket's shallow probes
        # beyond the admissible radii
        with pytest.raises(NoClassicalRegion):
            enumerate_bound_states(PowerLaw(b=-1.0, mu=-0.1), -0.5, 3, 1)

    def test_mu_gap_confining_levels(self):
        # V = r^0.005: the closed form needs the reference slice alone, whose
        # turning point lies at r = e, and each level's slice lies near it
        states = enumerate_bound_states(PowerLaw(b=1.0, mu=0.005), 1.02, 3, 1)
        assert [(s.n_r, s.l) for s in states] == [(0, 0), (0, 1)]
        assert states[0].E == pytest.approx(1.01696307, abs=1e-8)
        assert all(s.residual <= 1e-12 * s.T for s in states)


# Levels with a constant T keep every bit.  The Coulomb and screened rows
# are the energies of the phi fixed-point solver that preceded the one-root
# solve; they guard the bits of the bracketed root below a threshold, on
# which the Coulomb n = 4 quartet straddles the rounding tie at -1/32 =
# -0.03125 that the 4-decimal output shows.  The V = r and oscillator rows
# are the closed-form levels (they moved by at most 3.5e-14 from the
# bracketed roots they replaced).
_SAME_BITS = [
    ("power:b=-1,mu=-1", 3, 0, 3, -0.031249999999999986),
    ("power:b=-1,mu=-1", 2, 1, 3, -0.031250000000000014),
    ("power:b=-1,mu=-1", 1, 2, 3, -0.031250000000000014),
    ("power:b=-1,mu=-1", 0, 3, 3, -0.03125000000000003),
    ("power:b=1,mu=1", 0, 0, 3, 1.8769800423941758),
    ("power:b=1,mu=1", 1, 2, 3, 4.493550035520812),
    ("power:b=1,mu=1", 2, 1, 2, 4.681821366468121),
    ("power:b=0.5,mu=2", 0, 0, 3, 1.5000000000000004),
    ("power:b=0.5,mu=2", 2, 3, 3, 8.500000000000002),
    ("power:b=0.5,mu=2", 1, 1, 2, 4.0),
    ("screened:kind=exp,Z=10", 0, 0, 2, -190.18495648614842),
    ("screened:kind=exp,Z=10", 2, 0, 2, -1.612869787947605),
]
# levels whose T depends on E move only within the old fixed point's tolerance
_SAME_LEVEL = [
    ("screened:kind=exp,Z=50", 1, 1, 3, -94.35389196990198),
    ("screened:kind=exp,Z=50", 2, 3, 3, -3.1904268577188724),
    ("screened:kind=inv25,Z=30", 0, 1, 3, -54.716725386017956),
    ("screened:kind=tf,Z=30", 1, 1, 3, -2.8022531163478583),
    ("quark:alpha=0.5,delta=1,B=3", 0, 3, 3, 4.591008434119401),
    ("quark:alpha=0.5,delta=1,B=3", 2, 1, 3, 5.504617523655067),
]

class TestClosedFormLevels:
    """Levels of V = b r^mu (mu > 0) and of the hard wall are closed forms
    on the reference slice."""

    @settings(max_examples=25, deadline=None)
    @given(well=st.one_of(
               st.builds(lambda mu, b: PowerLaw(b=b, mu=mu),
                         st.one_of(st.floats(5e-3, 0.02), st.floats(0.02, 8.0, exclude_max=True)),
                         st.floats(0.1, 10.0)),
               st.builds(lambda R: parse_potential(f"wall:R={R:.6g}"), st.floats(0.01, 100.0))),
           d=st.integers(2, 5), n_r=st.integers(0, 3), l=st.integers(0, 3))
    @example(well=PowerLaw(b=1.0, mu=0.005), d=3, n_r=3, l=3)
    @example(well=PowerLaw(b=1.0, mu=8.0 - 1e-9), d=5, n_r=3, l=3)
    def test_residual(self, well, d, n_r, l):
        # below mu of about 3.5e-3 the slice analysis itself fails its
        # stationarity check at some mu, even at the reference energy, so
        # the draw starts at 5e-3
        entry = quantize_energy(well, QuantumLevel(n_r, l, d))
        assert entry.residual <= 1e-12 * entry.T

    @settings(max_examples=15, deadline=None)
    @given(b=st.floats(0.01, 100.0), d=st.integers(2, 5), n_r=st.integers(0, 3),
           l=st.integers(0, 3))
    def test_oscillator(self, b, d, n_r, l):
        lvl = QuantumLevel(n_r, l, d)
        exact = exact_reference_spectrum("oscillator", b, lvl)
        assert quantize_energy(PowerLaw(b=b, mu=2.0), lvl).E == pytest.approx(exact, rel=1e-13)

    def test_level_beyond_the_float_range(self):
        # E = 1e300 (T / N_1(E_0))^2 overflows: a classified error, as the
        # slice analysis gives where 2E overflows
        with pytest.raises(NumericsError, match="float range"):
            quantize_energy(parse_potential("wall:R=1e-150"), QuantumLevel(100000, 0, 3))

    def test_enumeration_work(self, slice_counts):
        # one slice per level, the reference slice, and none for the cap
        p = parse_potential("power:b=1,mu=1")
        states = enumerate_bound_states(p, 8.0, 3, 4)
        assert len(states) >= 19
        assert len(slice_counts) <= len(states) + 2
        assert max(slice_counts.values()) == 1


class TestOneRootPerLevel:
    """Each level solves N_1(E) = nu + phi(E) lambda as one bracketed root."""

    @pytest.mark.parametrize("spec,n_r,l,d,E", _SAME_BITS)
    def test_constant_t_levels_keep_their_bits(self, spec, n_r, l, d, E):
        assert quantize_energy(parse_potential(spec), QuantumLevel(n_r, l, d)).E == E

    @pytest.mark.parametrize("spec,n_r,l,d,E", _SAME_LEVEL)
    def test_phi_dependent_levels_stay(self, spec, n_r, l, d, E):
        entry = quantize_energy(parse_potential(spec), QuantumLevel(n_r, l, d))
        assert entry.E == pytest.approx(E, rel=1e-8)
        assert entry.iterations == 1

    @pytest.mark.parametrize("spec,l,e_root", [("screened:kind=inv2,Z=29.6", 3, -0.798692),
                                               ("screened:kind=inv25,Z=40", 3, -1.536829)])
    def test_opening_channel_is_not_empty(self, spec, l, e_root):
        # phi at the threshold, the largest of the well, once failed the
        # capacity check of the first level of a channel that just opens
        p = parse_potential(spec)
        lvl = QuantumLevel(0, l, 3)
        assert quantize_energy(p, lvl).E == pytest.approx(e_root, abs=1e-6)
        assert solve_bound_state(p, lvl) < 0.0  # the oracle has the level too

    def test_capacity_message_quotes_the_comparison(self):
        # F(0) < 0 although F has a pair of roots below 0; the oracle finds
        # no level either
        p = parse_potential("screened:kind=inv25,Z=20")
        lvl = QuantumLevel(0, 2, 3)
        with pytest.raises(NoBoundState) as info:
            quantize_energy(p, lvl)
        t_top = lvl.nu + phi_additive(analyze_slice(p, 0.0), 3) * lvl.lam
        n_top = action_I(analyze_slice(p, 0.0), 0.0)
        assert n_top < t_top
        assert str(info.value) == f"T = {t_top:g} exceeds the well capacity N1(0) = {n_top:g}"

    @settings(max_examples=12, deadline=None)
    @given(p=st.one_of(_SCREENED, _QUARK), d=st.integers(2, 4), n_r=st.integers(0, 3),
           l=st.integers(1, 4))
    @example(p=parse_potential("screened:kind=inv2,Z=45.2"), d=3, n_r=0, l=4)
    @example(p=parse_potential("screened:kind=inv2,Z=45.2"), d=3, n_r=8, l=0)
    @example(p=parse_potential("screened:kind=inv2,Z=45.2"), d=2, n_r=9, l=0)
    def test_t_is_self_consistent(self, p, d, n_r, l):
        # (8, 0) has its root 3e-16 below the threshold, and the constant-T
        # (9, 0, 2) 1.1e-16 below it; at the threshold the residual is 7.9e-3
        lvl = QuantumLevel(n_r, l, d)
        try:
            entry = quantize_energy(p, lvl)
        except NoBoundState:
            return
        assert entry.T == lvl.nu + phi_additive(analyze_slice(p, entry.E), d) * lvl.lam
        assert entry.residual <= 1e-9 * max(1.0, entry.T)
