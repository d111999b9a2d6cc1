"""Acceptance suite: every shipping claim of the package, runnable as one
battery (``teff verify --suite all``) or piecemeal.

Each criterion returns a CheckResult with a pass flag and a multi-line
detail block; the CLI prints one line per criterion and exits non-zero
on any failure.  Tolerances are pinned here, not in the callers.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
from scipy.special import roots_legendre

from .errors import TeffError
from .ordering import (
    QuantumLevel,
    leading_degeneracy,
    ordering_theorem_signs,
    regge_sign_check,
    shell_sequence,
)
from .oracle import solve_bound_state
from .potentials import HardWall, PowerLaw, analyze_slice, parse_potential
from .quadrature import action_I, bound_count_N
from .spectrum import enumerate_bound_states, quantize_energy
from .transforms import (
    b_coefficients,
    chi_d,
    chi_infinity_forms,
    chi_power_law_closed,
    chi_profile,
    phi_additive,
    screened_deep_energy,
)

__all__ = ["CheckResult", "SUITES", "run_suite"]


@dataclass(frozen=True)
class CheckResult:
    criterion: str
    passed: bool
    detail: str
    elapsed: float

    def summary_line(self):
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.criterion} ({self.elapsed:.1f}s)"


_COLUMNS = ("chi_inf", "chi_3", "chi_2", "chi_1", "phi_3", "phi_2", "phi_m3")

# printed reference values, in the column order above
_TABLE_POWER = {
    "mu=-1": (1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0),
    "mu->0": (0.707, 0.688, 0.680, 0.658, 0.644, 0.636, 0.643),
    "mu=1": (0.577, 0.568, 0.563, 0.551, 0.543, 0.539, 0.544),
    "mu=2": (0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5),
    "mu=3": (0.447, 0.457, 0.461, 0.469, 0.475, 0.477, 0.476),
    "mu->inf": (0.0, 0.212, 0.250, 0.318, 0.371, 0.386, 0.390),
}

# Erratum: the paper prints 1.89 for the Thomas-Fermi chi_inf; 1.938 is
# pinned instead, for two reasons.
# - The TF equation fixes it.  At E = 0, W is proportional to x Phi(x);
#   at its maximum x_m, Phi' = -Phi/x and Phi'' = Phi^(3/2)/sqrt(x) give
#   kappa + 2 = 1 - x_m^(3/2) Phi(x_m)^(1/2) / 2, and an integration of
#   the TF equation from the literature slope -1.588071022611 (x_m =
#   2.10403, Phi(x_m) = 0.231151) gives chi_inf = 1.937679.
# - The row contradicts itself.  Extrapolating a row's chi_1, chi_2 and
#   chi_3 quadratically in 1/d to d -> inf (chi_1/2 - 4 chi_2 + 4.5 chi_3)
#   recovers every other printed chi_inf to 3e-3 (exp 1.414, inv25 1.826,
#   mu=1 0.5795, mu=3 0.447); for TF it gives 1.945, and no rounding of
#   the row's two-decimal entries brings it below 1.900.
_TABLE_SCREENED = {
    "exp": (1.414, 1.376, 1.359, 1.316, 1.286, 1.273, 1.286),
    "inv2": (2.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0),
    "inv25": (1.826, 1.803, 1.793, 1.769, 1.752, 1.745, 1.752),
    "tf": (1.938, 1.87, 1.84, 1.78, 1.74, 1.72, 1.75),
}

# what the paper prints where the pinned value above corrects it
_MISPRINTED = {("tf", "chi_inf"): 1.89}

_MADELUNG_13 = ("1s", "2s", "2p", "3s", "3p", "4s", "3d",
                "4p", "5s", "4d", "5p", "6s", "4f")
_MADELUNG_OCC = (2, 4, 10, 12, 18, 20, 30, 36, 38, 48, 54, 56, 70)

# the mu -> 0 row is realised at a small positive exponent; the closed
# form drifts by ~1e-4 per unit mu there, far inside the tolerance
_MU_ZERO_PROXY = 1e-3


def _power_potential(key):
    if key == "mu=-1":
        return PowerLaw(b=-1.0, mu=-1.0)
    if key == "mu->0":
        return PowerLaw(b=1.0, mu=_MU_ZERO_PROXY)
    if key == "mu->inf":
        return HardWall(R=1.0)
    return PowerLaw(b=1.0, mu=float(key.split("=")[1]))


def _profile_columns(p, E):
    prof = chi_profile(p, E, ds=(2, 3))
    return (prof.chi_inf, prof.chi[3], prof.chi[2], prof.chi1,
            prof.phi_additive[3], prof.phi_additive[2], prof.phi_mult[3])


def _row_check(label, values, reference, tol):
    lines = []
    ok = True
    for col, got, ref in zip(_COLUMNS, values, reference):
        good = abs(got - ref) <= tol
        ok &= good
        mark = "" if good else "  <-- off"
        if (label, col) in _MISPRINTED:
            mark += f"  (erratum: the paper prints {_MISPRINTED[label, col]:.3f})"
        lines.append(f"  {label:8s} {col:7s} computed {got:9.5f}  printed {ref:6.3f}{mark}")
    return ok, lines


def check_table_power():
    """Criterion 1: power-law table rows to +-2e-3."""
    ok = True
    lines = []
    for key, ref in _TABLE_POWER.items():
        p = _power_potential(key)
        vals = _profile_columns(p, p.reference_energy())
        row_ok, row_lines = _row_check(key, vals, ref, 2e-3)
        ok &= row_ok
        lines += row_lines
    return ok, "\n".join(lines)


def check_table_screened():
    """Criterion 2: screened rows at E = 0 (2e-3; Thomas-Fermi 1.5e-2)."""
    ok = True
    lines = []
    for kind, ref in _TABLE_SCREENED.items():
        p = parse_potential(f"screened:kind={kind},Z=1")
        vals = _profile_columns(p, 0.0)
        tol = 1.5e-2 if kind == "tf" else 2e-3
        row_ok, row_lines = _row_check(kind, vals, ref, tol)
        ok &= row_ok
        lines += row_lines
    return ok, "\n".join(lines)


def check_deep_limit():
    """Criterion 3: operational deep-well limit drives every column to 1."""
    ok = True
    lines = []
    for kind in ("exp", "inv2", "inv25", "tf"):
        p = parse_potential(f"screened:kind={kind},Z=1")
        e_deep = screened_deep_energy(p)
        vals = _profile_columns(p, e_deep)
        worst = max(abs(v - 1.0) for v in vals)
        good = worst <= 1e-3
        ok &= good
        lines.append(f"  {kind:6s} E_deep = {e_deep:.4g}  max |col - 1| = {worst:.2e}"
                     + ("" if good else "  <-- off"))
    return ok, "\n".join(lines)


def check_reference_exactness():
    """Criterion 4: quantization reproduces both reference spectra to 1e-6."""
    from .oracle import exact_reference_spectrum

    ok = True
    lines = []
    coulomb = PowerLaw(b=-1.0, mu=-1.0)
    oscillator = PowerLaw(b=0.5, mu=2.0)
    worst = 0.0
    for d in (2, 3, 5):
        for n_r in range(4):
            for l in range(4):
                lvl = QuantumLevel(n_r, l, d)
                for p, kind, strength in ((coulomb, "coulomb", 1.0),
                                          (oscillator, "oscillator", 0.5)):
                    got = quantize_energy(p, lvl).E
                    ref = exact_reference_spectrum(kind, strength, lvl)
                    rel = abs(got / ref - 1.0)
                    worst = max(worst, rel)
                    if rel > 1e-6:
                        ok = False
                        lines.append(f"  {kind} ({n_r},{l},{d}): rel dev {rel:.2e}  <-- off")
    lines.append(f"  worst relative deviation over 96 levels: {worst:.2e} (tolerance 1e-6)")
    return ok, "\n".join(lines)


def _first_levels_by_energy(p, count, n_max=4, l_max=4):
    entries = []
    for l in range(l_max + 1):
        for n_r in range(n_max + 1):
            entries.append(quantize_energy(p, QuantumLevel(n_r, l, 3)))
    entries.sort(key=lambda e: e.E)
    return entries[:count]


def check_energy_accuracy():
    """Criterion 5: first six levels of V = r within 0.6% of the oracle and
    of the hard wall within 5%."""
    ok = True
    lines = []
    for p, name, tol in ((PowerLaw(b=1.0, mu=1.0), "V=r", 6e-3),
                         (HardWall(R=1.0), "hard wall", 5e-2)):
        for entry in _first_levels_by_energy(p, 6):
            exact = solve_bound_state(p, QuantumLevel(entry.n_r, entry.l, 3))
            dev = abs(entry.E / exact - 1.0)
            good = dev <= tol
            ok &= good
            lines.append(f"  {name:9s} ({entry.n_r},{entry.l}) predicted {entry.E:10.5f} "
                         f"oracle {exact:10.5f} dev {100 * dev:6.3f}%"
                         + ("" if good else f"  <-- exceeds {100 * tol:.1f}%"))
    return ok, "\n".join(lines)


def check_madelung():
    """Criterion 6: the 13-shell atomic order appears exactly on the slope
    window (5/3, 2) and breaks outside it; computed slopes for the
    atomic-model screenings fall inside the window."""
    ok = True
    lines = []
    for phi, expect_match in ((1.70, True), (1.75, True), (1.95, True),
                              (1.60, False), (2.05, False)):
        seq = shell_sequence(phi, 3, 13, spin=2)
        labels = tuple(e.label for e in seq.entries)
        good = (labels == _MADELUNG_13) is expect_match
        ok &= good
        lines.append(f"  phi={phi:4.2f}: sequence {'matches' if labels == _MADELUNG_13 else 'differs'}"
                     f" (expected {'match' if expect_match else 'break'})"
                     + ("" if good else "  <-- off"))
    occ = tuple(e.cumulative for e in shell_sequence(1.75, 3, 13, spin=2).entries)
    good = occ == _MADELUNG_OCC
    ok &= good
    lines.append(f"  occupancies at phi=1.75: {occ}" + ("" if good else "  <-- off"))
    for kind in ("inv25", "tf"):
        p = parse_potential(f"screened:kind={kind},Z=1")
        phi3 = phi_additive(analyze_slice(p, 0.0), 3)
        good = 5.0 / 3.0 < phi3 < 2.0
        ok &= good
        lines.append(f"  phi(3) for {kind}: {phi3:.4f} in (5/3, 2): {good}")
    return ok, "\n".join(lines)


def check_sign_theorems():
    """Criterion 7: both convexity-index identities over the mu sweep, and
    the second-difference sign test at lambda = 2, 3."""
    ok = True
    lines = []
    for mu in (-1.5, -0.5, 0.5, 1.0, 1.9, 2.1, 3.0, 6.0):
        p = PowerLaw(b=1.0 if mu > 0 else -1.0, mu=mu)
        rep = ordering_theorem_signs(p, p.reference_energy())
        verdicts = tuple(c.verdict for c in rep.checks)
        good = verdicts == ("agree", "agree")
        ok &= good
        lines.append(f"  mu={mu:4g}: identities {verdicts}, phi(3) = {rep.phi:.4f}"
                     + ("" if good else "  <-- off"))
    for mu in (1.0, 2.0, 3.0):
        rep = regge_sign_check(mu, [1.5, 2.5], d=3)
        verdicts = tuple(c.verdict for c in rep.checks)
        good = verdicts == ("agree", "agree")
        ok &= good
        lines.append(f"  second-difference mu={mu:g} at lambda 2,3: {verdicts}"
                     + ("" if good else "  <-- off"))
    return ok, "\n".join(lines)


# interior-maximum rows of the table at the table's own energies: the
# screened rows quote E = 0 and the operational deep limit, the power
# rows hold at any E (two energies probe that).  The hard wall is
# excluded because its W peaks at the boundary, where the large-d
# expansion behind the s/w diagnostics does not exist (its
# multiplicative/additive ratio is 1.05).
_QUALITY_POWER = (
    ("power:b=-1,mu=-1", (-0.5, -2.0)),
    (f"power:b=1,mu={_MU_ZERO_PROXY}", (math.exp(_MU_ZERO_PROXY),)),
    ("power:b=1,mu=1", (0.7, 2.0)),
    ("power:b=1,mu=2", (1.0, 3.0)),
    ("power:b=1,mu=3", (1.0, 4.0)),
)


def check_approximation_quality():
    """Criterion 8: R - 1 in [0, 0.01] for d = 2, 3 and |s-1|, |w-1| <= 0.02
    at d = 3 (the stated dimension of the closeness claim) across the
    interior-maximum table rows at their table energies."""
    cases = list(_QUALITY_POWER)
    for kind in ("exp", "inv2", "inv25", "tf"):
        p = parse_potential(f"screened:kind={kind},Z=1")
        cases.append((f"screened:kind={kind},Z=1",
                      (0.0, screened_deep_energy(p))))
    ok = True
    lines = []
    for spec, energies in cases:
        p = parse_potential(spec)
        for E in energies:
            prof = chi_profile(p, E, ds=(2, 3))
            s_gap = abs(prof.s[3] - 1.0)
            w_gap = abs(prof.w[3] - 1.0)
            good = s_gap <= 0.02 and w_gap <= 0.02
            for d in (2, 3):
                good &= -1e-9 <= prof.ratio_R[d] - 1.0 <= 0.01
            ok &= good
            lines.append(f"  {spec:28s} E={E:10.4g}: R-1(2)={prof.ratio_R[2] - 1:9.2e} "
                         f"R-1(3)={prof.ratio_R[3] - 1:9.2e} |s-1|={s_gap:8.2e} "
                         f"|w-1|={w_gap:8.2e}" + ("" if good else "  <-- off"))
    return ok, "\n".join(lines)


def _check_weighted_identity(lines):
    ok = True
    nodes, weights = roots_legendre(64)
    cases = [(PowerLaw(b=1.0, mu=1.0), 1.0), (PowerLaw(b=1.0, mu=2.0), 1.0),
             (PowerLaw(b=1.0, mu=4.0), 1.0),
             (parse_potential("screened:kind=exp,Z=50"), -2.0)]
    for p, E in cases:
        s = analyze_slice(p, E)
        lam = 0.5 * s.A * (nodes + 1.0)
        wts = 0.5 * s.A * weights
        acts = np.array([action_I(s, float(x)) for x in lam])
        for d in (2, 3, 4):
            degs = np.array([leading_degeneracy(float(x), d) for x in lam])
            lhs = float(np.sum(wts * degs * acts))
            rhs = bound_count_N(s, d)
            rel = abs(lhs / rhs - 1.0)
            good = rel <= 5e-3
            ok &= good
            lines.append(f"  weighted identity {p.spec_string():24s} d={d}: rel {rel:.2e}"
                         + ("" if good else "  <-- off"))
    return ok


def _check_scale_invariance(lines):
    ok = True
    c = 3.7
    # (potential, E, the same potential with V -> cV)
    base = [(PowerLaw(b=1.0, mu=1.0), 0.9, PowerLaw(b=c * 1.0, mu=1.0)),
            (PowerLaw(b=-1.0, mu=-1.0), -0.7, PowerLaw(b=c * -1.0, mu=-1.0)),
            (parse_potential("screened:kind=exp,Z=2"), -0.3,
             parse_potential(f"screened:kind=exp,Z={c * 2.0}")),
            (parse_potential("quark:alpha=0.5,delta=1,B=3"), 1.5,
             parse_potential(f"quark:alpha=0.5,delta=1,B={c * 3.0}"))]
    for p, E, scaled in base:
        s_a, s_b = analyze_slice(p, E), analyze_slice(scaled, c * E)
        chi_a, phi_a = chi_d(s_a, 3), phi_additive(s_a, 3)
        chi_b, phi_b = chi_d(s_b, 3), phi_additive(s_b, 3)
        rel = max(abs(chi_b / chi_a - 1.0), abs(phi_b / phi_a - 1.0))
        good = rel <= 1e-8
        ok &= good
        lines.append(f"  V->cV, E->cE invariance {p.spec_string():24s}: {rel:.2e}"
                     + ("" if good else "  <-- off"))
    # r -> a r relabelling realised inside the power-law family
    for a in (2.0, 0.5):
        s1 = analyze_slice(PowerLaw(b=1.0, mu=1.5), 1.1)
        s2 = analyze_slice(PowerLaw(b=a ** 1.5, mu=1.5), 1.1)
        rel = max(abs(chi_d(s2, 3) / chi_d(s1, 3) - 1.0),
                  abs(phi_additive(s2, 3) / phi_additive(s1, 3) - 1.0))
        good = rel <= 1e-8
        ok &= good
        lines.append(f"  r -> {a} r relabelling: {rel:.2e}" + ("" if good else "  <-- off"))
    return ok


def _check_chi_inf_forms(lines):
    ok = True
    cases = [(PowerLaw(b=1.0, mu=_MU_ZERO_PROXY), math.exp(_MU_ZERO_PROXY)),
             (PowerLaw(b=1.0, mu=1.0), 1.0), (PowerLaw(b=1.0, mu=3.0), 1.0),
             (parse_potential("screened:kind=exp,Z=1"), 0.0),
             (parse_potential("screened:kind=inv2,Z=1"), -0.05),
             (parse_potential("screened:kind=inv25,Z=1"), 0.0),
             (parse_potential("screened:kind=tf,Z=1"), 0.0),
             (parse_potential("quark:alpha=0.5,delta=1,B=3"), 2.0)]
    for p, E in cases:
        cur, con = chi_infinity_forms(analyze_slice(p, E))
        rel = abs(cur / con - 1.0)
        good = rel <= 1e-6
        ok &= good
        lines.append(f"  chi_inf forms {p.spec_string():28s}: rel {rel:.2e}"
                     + ("" if good else "  <-- off"))
    return ok


def _check_b1_extraction(lines):
    ok = True
    for mu in (1.0, 3.0):
        p = PowerLaw(b=1.0, mu=mu)
        s = analyze_slice(p, p.reference_energy())
        chi_inf = 1.0 / math.sqrt(mu + 2.0)
        seq = {d: d * (chi_d(s, float(d)) / chi_inf - 1.0) for d in (16, 32)}
        # only even inverse powers are absent from the series, so one
        # Richardson step in 1/d^2 leaves an O(1/d^3) remainder
        b1_est = (4.0 * seq[32] - seq[16]) / 3.0
        b1_ref, _ = b_coefficients(mu)
        closed = (4.0 * 32 * (chi_power_law_closed(mu, 32) / chi_inf - 1.0)
                  - 16 * (chi_power_law_closed(mu, 16) / chi_inf - 1.0)) / 3.0
        good = abs(b1_est - b1_ref) <= 1e-3 and abs(b1_est - closed) <= 1e-6
        ok &= good
        lines.append(f"  b1 extraction mu={mu:g}: quadrature {b1_est:.6f} vs {b1_ref:.6f}"
                     + ("" if good else "  <-- off"))
    return ok


def _check_orderings(lines):
    ok = True
    for name, spec, cap, lmax in (("Yukawa Z=50", "screened:kind=exp,Z=50", -0.05, 4),
                                  ("quarkonium", "quark:alpha=0.5,delta=1,B=3", 8.0, 3)):
        p = parse_potential(spec)
        states = enumerate_bound_states(p, cap, 3, lmax)
        oracle = {(s.n_r, s.l): solve_bound_state(p, QuantumLevel(s.n_r, s.l, 3))
                  for s in states}
        pred = [(s.n_r, s.l) for s in states]
        true = [k for k, _ in sorted(oracle.items(), key=lambda kv: kv[1])]
        good = pred == true
        ok &= good
        flips = [(a, b) for a, b in zip(pred, true) if a != b]
        lines.append(f"  {name} ordering ({len(states)} levels, E <= {cap:g}, l <= {lmax}): "
                     + ("exact match" if good else f"MISMATCH at {flips}"))
    return ok


def check_property_suite():
    """Criterion 9: weighted-degeneracy identity, scale invariance,
    large-d limit consistency, series coefficient extraction, and
    T-vs-oracle ordering on the two showcase wells."""
    lines = []
    ok = _check_weighted_identity(lines)
    ok &= _check_scale_invariance(lines)
    ok &= _check_chi_inf_forms(lines)
    ok &= _check_b1_extraction(lines)
    ok &= _check_orderings(lines)
    return ok, "\n".join(lines)


_CRITERIA = (
    ("criterion-1 table power rows", check_table_power),
    ("criterion-2 table screened rows", check_table_screened),
    ("criterion-3 deep-well limit", check_deep_limit),
    ("criterion-4 reference exactness", check_reference_exactness),
    ("criterion-5 energy accuracy", check_energy_accuracy),
    ("criterion-6 shell-filling window", check_madelung),
    ("criterion-7 sign theorems", check_sign_theorems),
    ("criterion-8 approximation quality", check_approximation_quality),
    ("criterion-9 property suite", check_property_suite),
)

SUITES = {
    "all": [name for name, _ in _CRITERIA],
    "table1": ["criterion-1 table power rows", "criterion-2 table screened rows",
               "criterion-3 deep-well limit"],
    "references": ["criterion-4 reference exactness"],
    "accuracy": ["criterion-5 energy accuracy"],
    "madelung": ["criterion-6 shell-filling window"],
    "signs": ["criterion-7 sign theorems"],
    "quality": ["criterion-8 approximation quality"],
    "properties": ["criterion-9 property suite"],
}


def run_suite(names):
    """Run the named criteria; always appends the runtime budget check
    (criterion 10) when the full battery was requested."""
    results = []
    by_name = dict(_CRITERIA)
    t_start = time.perf_counter()
    for name in names:
        runner = by_name[name]
        t0 = time.perf_counter()
        try:
            passed, detail = runner()
        except TeffError as exc:
            passed, detail = False, f"  aborted: {exc}"
        results.append(CheckResult(criterion=name, passed=bool(passed), detail=detail,
                                   elapsed=time.perf_counter() - t0))
    if set(names) >= set(SUITES["all"]):
        total = time.perf_counter() - t_start
        results.append(CheckResult(
            criterion="criterion-10 runtime budget", passed=total < 300.0,
            detail=f"  full battery completed in {total:.1f}s (budget 300s)",
            elapsed=total))
    return results
