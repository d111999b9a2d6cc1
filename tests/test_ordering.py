import json
import math
from fractions import Fraction

import pytest

from teff import ordering
from teff import (
    LambdaTooSmall,
    NumericsError,
    PowerLaw,
    QuantumLevel,
    analyze_slice,
    degeneracy,
    diagram_data,
    diagram_to_csv,
    diagram_to_json,
    enumerate_bound_states,
    leading_degeneracy,
    ordering_theorem_signs,
    parse_potential,
    regge_sign_check,
    shell_sequence,
    spectroscopic_label,
    teff,
    teff_nonlinear,
)

MADELUNG = ["1s", "2s", "2p", "3s", "3p", "4s", "3d", "4p", "5s", "4d", "5p", "6s", "4f"]


class TestLevels:
    def test_quantum_numbers(self):
        lvl = QuantumLevel(2, 1, 5)
        assert lvl.nu == 2.5 and lvl.lam == 2.5
        assert QuantumLevel(0, 0, 2).lam == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            QuantumLevel(-1, 0, 3)
        with pytest.raises(ValueError):
            QuantumLevel(0, 0, 1)

    def test_teff_values(self):
        assert teff(QuantumLevel(0, 0, 3), 1.0) == 1.0
        assert teff(QuantumLevel(0, 3, 3), 1.75) == pytest.approx(6.625)
        assert teff(QuantumLevel(1, 0, 5), 0.5) == pytest.approx(2.25)

    def test_teff_principal_number(self):
        # phi = 1 at d = 3 recovers n = n_r + l + 1
        for n_r in range(3):
            for l in range(3):
                assert teff(QuantumLevel(n_r, l, 3), 1.0) == n_r + l + 1

    def test_phi_positive(self):
        with pytest.raises(ValueError):
            teff(QuantumLevel(0, 0, 3), 0.0)


class TestNonlinearT:
    def test_reference_collapse(self):
        lvl = QuantumLevel(0, 1, 3)
        assert teff_nonlinear(lvl, 1.0, 1.0, 3.0) == pytest.approx(lvl.nu + lvl.lam)

    def test_log_term_vanishes_at_amplitude(self):
        lvl = QuantumLevel(0, 1, 3)  # lam = 1.5
        assert teff_nonlinear(lvl, 0.5, 0.9, 1.5) == pytest.approx(0.5 + 0.5 * 1.5)

    def test_table_arithmetic(self):
        # chi1 = 0.551, chi_inf = 0.577, lam = 1.5, A = 3
        lvl = QuantumLevel(0, 1, 3)
        t = teff_nonlinear(lvl, 0.551, 0.577, 3.0)
        assert t - lvl.nu == pytest.approx(0.8535, abs=2e-4)

    def test_lambda_too_small(self):
        with pytest.raises(LambdaTooSmall):
            teff_nonlinear(QuantumLevel(0, 0, 3), 0.5, 0.6, 100.0)
        with pytest.raises(LambdaTooSmall):
            teff_nonlinear(QuantumLevel(0, 0, 2), 0.5, 0.6, 1.0)

    def test_second_difference_sign(self):
        # sign of the lambda second difference equals sign of chi1 - chi_inf
        for chi1, chi_inf in ((0.551, 0.577), (0.469, 0.447)):
            a = 6.0
            vals = [teff_nonlinear(QuantumLevel(0, k, 4), chi1, chi_inf, a)
                    for k in (1, 2, 3)]
            second = vals[2] - 2 * vals[1] + vals[0]
            assert math.copysign(1, second) == math.copysign(1, chi1 - chi_inf)


class TestDegeneracy:
    def test_three_dimensional(self):
        for l in range(6):
            assert degeneracy(l, 3) == 2 * l + 1

    def test_two_dimensional(self):
        assert degeneracy(0, 2) == 1
        for l in (1, 2, 3, 5):
            assert degeneracy(l, 2) == 2

    def test_four_dimensional(self):
        for l in range(5):
            assert degeneracy(l, 4) == (l + 1) ** 2

    def test_spin_factor(self):
        assert degeneracy(2, 3, spin=2) == 10

    def test_leading_term_matches_exactly_low_d(self):
        # exact identity for d <= 4 away from the truncated-product edge
        for d in (2, 3, 4):
            for l in range(2, 8):
                lam = l + 0.5 * (d - 2)
                assert degeneracy(l, d) == pytest.approx(leading_degeneracy(lam, d))

    def test_leading_term_ratio_bounded_d56(self):
        for d in (5, 6):
            ratios = []
            for l in (6, 12, 24, 48):
                lam = l + 0.5 * (d - 2)
                gap = degeneracy(l, d) - leading_degeneracy(lam, d)
                ratios.append(abs(gap) / lam ** (d - 4))
            assert max(ratios) / min(ratios) < 3.0


class TestShellSequence:
    def test_madelung(self):
        seq = shell_sequence(1.75, 3, 13, spin=2)
        assert [e.label for e in seq.entries] == MADELUNG
        assert [e.cumulative for e in seq.entries] == [
            2, 4, 10, 12, 18, 20, 30, 36, 38, 48, 54, 56, 70]

    @pytest.mark.parametrize("phi", [1.70, 1.80, 1.95])
    def test_madelung_window(self, phi):
        assert [e.label for e in shell_sequence(phi, 3, 13, spin=2).entries] == MADELUNG

    @pytest.mark.parametrize("phi", [1.60, 2.05])
    def test_outside_window_breaks(self, phi):
        assert [e.label for e in shell_sequence(phi, 3, 13, spin=2).entries] != MADELUNG

    def test_crossing_slopes_exact(self):
        # T(5,0) = T(0,3) and T(0,1) = T(2,0) pin the window edges
        def crossing(a, b):
            nu_a, lam_a = Fraction(2 * a[0] + 1, 2), Fraction(2 * a[1] + 1, 2)
            nu_b, lam_b = Fraction(2 * b[0] + 1, 2), Fraction(2 * b[1] + 1, 2)
            return (nu_a - nu_b) / (lam_b - lam_a)

        assert crossing((5, 0), (0, 3)) == Fraction(5, 3)
        assert crossing((2, 0), (0, 1)) == Fraction(2, 1)

    def test_coulomb_ties_flagged(self):
        seq = shell_sequence(1.0, 3, 6, spin=1)
        tied = [(e.n_r, e.l) for e in seq.entries if e.tied]
        assert (1, 0) in tied and (0, 1) in tied
        # within a tie the smaller l comes first
        i10 = [(e.n_r, e.l) for e in seq.entries].index((1, 0))
        i01 = [(e.n_r, e.l) for e in seq.entries].index((0, 1))
        assert i10 < i01

    def test_cluster_rule_equivalence(self):
        # phi = 1/3 orders identically to the 3 n_r + l rule
        seq = shell_sequence(1.0 / 3.0, 3, 20)
        keys = [3 * e.n_r + e.l for e in seq.entries]
        assert keys == sorted(keys)

    def test_t_strictly_sorted(self):
        seq = shell_sequence(0.37, 3, 25)
        ts = [e.T for e in seq.entries]
        assert ts == sorted(ts)

    def test_labels(self):
        assert spectroscopic_label(0, 0) == "1s"
        assert spectroscopic_label(0, 3) == "4f"
        assert spectroscopic_label(1, 2, 5) == "(1,2)"


class TestSignTheorems:
    @pytest.mark.parametrize("mu,first,second", [
        (1.0, "agree", "agree"),
        (3.0, "agree", "agree"),
        (-1.5, "agree", "agree"),
    ])
    def test_power_law_identities(self, mu, first, second):
        p = PowerLaw(b=1.0 if mu > 0 else -1.0, mu=mu)
        rep = ordering_theorem_signs(p, p.reference_energy())
        assert rep.checks[0].verdict == first
        assert rep.checks[1].verdict == second

    def test_mu1_signs(self):
        p = PowerLaw(b=1.0, mu=1.0)
        rep = ordering_theorem_signs(p, 1.0)
        assert rep.checks[0].kappa_sign == 1 and rep.checks[0].phi_sign == 1
        assert rep.checks[1].kappa_sign == -1 and rep.checks[1].phi_sign == -1

    def test_quark_convexity_crossing(self):
        # small confining term: kappa stays below 2 inside the classical
        # region; a strong one pushes kappa(r_t) above 2
        weak = parse_potential("quark:alpha=0.9,delta=3,B=1")
        s = analyze_slice(weak, -0.5)
        assert float(weak.kappa(s.r_t)) < 2.0
        strong = parse_potential("quark:alpha=0.1,delta=3,B=100")
        s2 = analyze_slice(strong, 500.0)
        assert float(strong.kappa(s2.r_t)) > 2.0

    def test_quark_mixed_sign_reported(self):
        p = parse_potential("quark:alpha=0.1,delta=3,B=100")
        rep = ordering_theorem_signs(p, 500.0)
        assert rep.checks[1].verdict in ("not-applicable", "agree", "disagree")
        assert rep.kappa_min < 2.0 < rep.kappa_max


class TestReggeSigns:
    @pytest.mark.parametrize("mu", [1.0, 2.0, 3.0])
    def test_agreement(self, mu):
        rep = regge_sign_check(mu, [1.5, 2.5])
        assert all(c.verdict == "agree" for c in rep.checks)

    def test_lambda_factor_positive(self):
        rep = regge_sign_check(1.0, [1.5, 2.5, 4.0])
        assert all(c.lambda_factor > 0 for c in rep.checks)

    def test_oscillator_degenerate_sign(self):
        rep = regge_sign_check(2.0, [1.5])
        assert rep.checks[0].lhs_sign == 0 and rep.checks[0].rhs_sign == 0

    def test_domain(self):
        with pytest.raises(ValueError):
            regge_sign_check(1.0, [0.5])  # lambda - 1 = 0


@pytest.fixture(scope="module")
def diagram():
    yukawa = parse_potential("screened:kind=exp,Z=50")
    quark = parse_potential("quark:alpha=0.5,delta=1,B=3")
    levels = [QuantumLevel(n_r, l, 3) for n_r in range(4) for l in range(4)]
    e_yuk = [-1200.0, -300.0, -95.0, -38.0, -15.0, -4.7, -1.0, -0.2, -0.02, 0.0]
    e_qrk = [-8.0, -3.0, -1.0, 0.0, 1.0, 2.5, 4.0, 6.0, 8.5, 11.0]
    return diagram_data(levels, (0.2, 2.2), [(yukawa, e_yuk), (quark, e_qrk)])


class TestDiagram:

    def test_lines_are_linear(self, diagram):
        for line in diagram.lines:
            phis = [p for p, _ in line.points]
            ts = [t for _, t in line.points]
            slope = (ts[-1] - ts[0]) / (phis[-1] - phis[0])
            for p, t in line.points:
                assert t == pytest.approx(ts[0] + slope * (p - phis[0]), rel=1e-12)

    def test_yukawa_curve_endpoint(self, diagram):
        curve = next(c for c in diagram.curves if "exp" in c.label)
        # rightmost point (E -> 0) approaches the threshold slope 1.286
        phi_end = curve.points[-1][0]
        assert phi_end == pytest.approx(1.286, abs=2e-3)

    def test_quark_curve_deep_end(self, diagram):
        curve = next(c for c in diagram.curves if "quark" in c.label)
        assert curve.points[0][0] == pytest.approx(1.0, abs=0.05)

    def test_crossings_satisfy_quantization(self, diagram):
        from teff import action_I

        assert diagram.crossings
        for x in diagram.crossings[:6]:
            p = parse_potential(x.curve_label)
            n1 = action_I(analyze_slice(p, x.E), 0.0)
            assert n1 == pytest.approx(x.t_value, rel=1e-8)

    def test_csv_round_trip(self, diagram):
        text = diagram_to_csv(diagram)
        lines = text.strip().splitlines()
        assert lines[0].startswith("#") and "4 decimals" in lines[0]
        assert lines[1] == "kind,label,x,y"
        kinds = {ln.split(",")[0] for ln in lines[2:]}
        assert kinds == {"line", "curve", "crossing"}

    def test_json_schema(self, diagram):
        obj = diagram_to_json(diagram)
        assert obj["schema"] == 1
        text = json.dumps(obj)
        assert "crossings" in obj and json.loads(text) == obj

    def test_no_energy_analysed_twice(self, slice_counts):
        # grid points, the crossing searches and the crossing points share
        # one slice per energy
        yukawa = parse_potential("screened:kind=exp,Z=50")
        levels = [QuantumLevel(n_r, l, 3) for n_r in range(2) for l in range(2)]
        dd = diagram_data(levels, (0.2, 2.2), [(yukawa, [-1200.0, -300.0, -95.0, -38.0])])
        assert len(dd.crossings) >= 2
        assert max(slice_counts.values()) == 1

    def test_held_bracket_bisects(self):
        # one sign change among 999 held energies is bracketed by its two
        # neighbours after about log2(999) evaluations; a held energy whose
        # curve point fails (here the first midpoint) is passed over
        held = [k / 1000 for k in range(1, 1000)]
        calls = []

        def gap(E):
            calls.append(E)
            if E == 0.5:
                raise NumericsError("no curve point")
            return E - 0.6183

        assert ordering._held_bracket(gap, 0.0, -0.6183, 1.0, held) == (0.618, 0.619)
        assert calls[0] == 0.5 and len(calls) <= 12

    def test_bad_phi_range(self):
        with pytest.raises(ValueError):
            diagram_data([QuantumLevel(0, 0, 3)], (0.0, 2.0), [])


# (spec, cap, l_max) of enumerations that a diagram is drawn after
_ENUMERATIONS = {
    "yukawa": ("screened:kind=exp,Z=50", -0.05, 4),
    "quark": ("quark:alpha=0.5,delta=1,B=3", 8.0, 3),
    "linear": ("power:b=1,mu=1", 5.0, 3),
    "coulomb": ("power:b=-1,mu=-1", -0.025, 3),
}


def _enumerated(name):
    """A potential that one enumeration has run on, and its levels."""
    spec, e_max, l_max = _ENUMERATIONS[name]
    p = parse_potential(spec)
    return p, enumerate_bound_states(p, e_max, 3, l_max)


class TestDiagramAfterEnumeration:
    """A diagram drawn on the object an enumeration ran on finds each
    crossing of an enumerated level among the slices the solves left."""

    @pytest.mark.parametrize("name", ["yukawa", "quark"])
    def test_crossings_cost_no_slice(self, slice_counts, name):
        p, states = _enumerated(name)
        slice_counts.clear()
        grid = p.default_energy_grid()
        levels = [QuantumLevel(s.n_r, s.l, 3) for s in states]
        dd = diagram_data(levels, (0.1, 2.2), [(p, grid)])
        assert len(dd.crossings) == len(states)
        # 3 (Yukawa) and 2 (quarkonium) energies beyond the grid; a diagram
        # on a fresh potential analyses 133 and 91
        assert len(slice_counts) <= len(grid) + 4

    @pytest.mark.parametrize("name", list(_ENUMERATIONS))
    def test_crossing_is_the_level(self, name):
        # the crossing brackets close on the solves' last probes; a fresh
        # potential leaves the crossings up to 3e-11 from the levels
        p, states = _enumerated(name)
        by_label = {spectroscopic_label(s.n_r, s.l, 3): s.E for s in states}
        levels = [QuantumLevel(s.n_r, s.l, 3) for s in states]
        dd = diagram_data(levels, (0.1, 2.2), [(p, p.default_energy_grid())])
        assert dd.crossings
        for x in dd.crossings:
            assert abs(x.E - by_label[x.line_label]) <= 1e-13 * abs(by_label[x.line_label])


class TestOrderingLaw:
    def test_pairwise_signs_match_sequence(self):
        # the sequence order and pairwise T comparisons are the same relation
        seq = shell_sequence(0.87, 3, 15)
        entries = seq.entries
        for i, a in enumerate(entries):
            for b in entries[i + 1:]:
                assert a.T <= b.T
                if a.T != b.T:
                    assert math.copysign(1, a.T - b.T) == -1.0
