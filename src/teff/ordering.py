"""Effective quantum numbers, degeneracies, shell filling and sign theorems.

The ordering workhorse is T = nu + phi*lambda with nu = n_r + 1/2 and
lambda = l + (d-2)/2: whatever the potential, levels fill in order of
increasing T once phi is known.  This module builds shell sequences from
that rule, checks it against the classical convexity-index theorems, and
produces the universal (phi, T) diagram data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .errors import LambdaTooSmall, TeffError
from .transforms import chi_d, phi_additive

__all__ = [
    "QuantumLevel",
    "teff",
    "teff_nonlinear",
    "degeneracy",
    "leading_degeneracy",
    "spectroscopic_label",
    "ShellEntry",
    "ShellSequence",
    "shell_sequence",
    "SignIdentityCheck",
    "OrderingSignReport",
    "ordering_theorem_signs",
    "ReggeCheck",
    "ReggeSignReport",
    "regge_sign_check",
    "DiagramData",
    "diagram_data",
    "diagram_to_csv",
    "diagram_to_json",
]


@dataclass(frozen=True)
class QuantumLevel:
    """A bound level labelled by radial and orbital quantum numbers in d dimensions."""

    n_r: int
    l: int
    d: int = 3

    def __post_init__(self):
        if self.n_r < 0 or self.l < 0:
            raise ValueError("quantum numbers must be non-negative")
        if self.d < 2:
            raise ValueError("dimension must be >= 2")

    @property
    def nu(self):
        return self.n_r + 0.5

    @property
    def lam(self):
        return self.l + 0.5 * (self.d - 2)


def teff(level, phi):
    """Effective quantum number T = nu + phi*lambda (equals the principal
    quantum number n_r + l + 1 for phi = 1, d = 3)."""
    if not phi > 0:
        raise ValueError("phi must be positive")
    return level.nu + phi * level.lam


def teff_nonlinear(level, chi1, chi_inf, A):
    """Non-linear form T = nu + chi1*lam + (chi1 - chi_inf)*lam*ln(lam/A).

    Rejected when lam/A < 0.05, where the underlying Mellin inversion
    loses validity.
    """
    lam = level.lam
    if lam <= 0:
        raise LambdaTooSmall("non-linear form needs lambda > 0")
    if lam / A < 0.05:
        raise LambdaTooSmall(f"lambda/A = {lam / A:.3g} < 0.05")
    return _mellin_t(level, chi1, chi_inf, A)


def _mellin_t(level, chi1, chi_inf, A):
    """The formula of ``teff_nonlinear`` without its validity guards."""
    lam = level.lam
    return level.nu + chi1 * lam + (chi1 - chi_inf) * lam * math.log(lam / A)


def _rising_product(l, d):
    """(l+1)(l+2)...(l+d-1), zero for l < 0."""
    if l < 0:
        return 0
    out = 1
    for k in range(1, d):
        out *= l + k
    return out


def degeneracy(l, d, spin=1):
    """Number of states sharing orbital quantum number l in d dimensions."""
    if l < 0 or d < 2:
        raise ValueError("need l >= 0 and d >= 2")
    if spin not in (1, 2):
        raise ValueError("spin factor must be 1 or 2")
    base = (_rising_product(l, d) - _rising_product(l - 2, d)) // math.factorial(d - 1)
    return spin * base


def leading_degeneracy(lam, d):
    """Leading large-lambda term 2 lambda^(d-2) / (d-2)! of the degeneracy."""
    if d < 2:
        raise ValueError("need d >= 2")
    return 2.0 * lam ** (d - 2) / math.factorial(d - 2)


_ORBITAL_LETTERS = "spdfghiklmnoqrtuvwxyz"
_PHI_SAMPLES = 11  # points on each level line of the diagram
MAX_SHELLS = 100_000  # largest shell_sequence count: about 1 s of heap merge


def spectroscopic_label(n_r, l, d=3):
    """'1s', '2p', ... for d = 3; a plain (n_r, l) tag otherwise."""
    if d != 3:
        return f"({n_r},{l})"
    n = n_r + l + 1
    letter = _ORBITAL_LETTERS[l] if l < len(_ORBITAL_LETTERS) else f"[l={l}]"
    return f"{n}{letter}"


@dataclass(frozen=True)
class ShellEntry:
    n_r: int
    l: int
    label: str
    T: float
    degeneracy: int
    cumulative: int
    tied: bool = False


@dataclass(frozen=True)
class ShellSequence:
    """Shells in order of increasing T; exact ties are flagged and broken
    by smaller l first."""

    phi: float
    d: int
    spin: int
    entries: tuple


def shell_sequence(phi, d, count, spin=1):
    """First ``count`` shells of the T-ordering at slope phi, a heap merge
    of the l channels by (T, l, n_r): T rises with n_r in a channel, and
    channel l + 1 opens when its predecessor (0, l) leaves the heap.
    ``count`` runs from 1 to ``MAX_SHELLS``."""
    if not 0.0 < phi < math.inf:
        raise ValueError("phi must be positive and finite")
    if not 1 <= count <= MAX_SHELLS:
        raise ValueError(f"count must be from 1 to {MAX_SHELLS}")
    import heapq

    key = lambda n_r, l: (teff(QuantumLevel(n_r, l, d), phi), l, n_r)
    heap = [key(0, 0)]
    picked = []
    while len(picked) < count:
        t, l, n_r = heapq.heappop(heap)
        picked.append((t, l, n_r))
        heapq.heappush(heap, key(n_r + 1, l))
        if n_r == 0:
            heapq.heappush(heap, key(0, l + 1))

    close = lambda a, b: math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12)
    entries = []
    cumulative = 0
    for idx, (t, l, n_r) in enumerate(picked):
        tied = (idx > 0 and close(t, picked[idx - 1][0])) or \
            (idx + 1 < len(picked) and close(t, picked[idx + 1][0]))
        deg = degeneracy(l, d, spin)
        cumulative += deg
        entries.append(ShellEntry(n_r=n_r, l=l, label=spectroscopic_label(n_r, l, d),
                                  T=t, degeneracy=deg, cumulative=cumulative, tied=tied))
    return ShellSequence(phi=phi, d=d, spin=spin, entries=tuple(entries))


def _sign(x, tol=1e-9):
    if abs(x) <= tol:
        return 0
    return 1 if x > 0 else -1


@dataclass(frozen=True)
class SignIdentityCheck:
    name: str
    kappa_sign: int | None     # None means the sign is mixed over the probe domain
    phi_sign: int
    verdict: str               # agree / disagree / not-applicable


@dataclass(frozen=True)
class OrderingSignReport:
    potential: str
    E: float
    phi: float
    kappa_min: float
    kappa_max: float
    checks: tuple


def ordering_theorem_signs(p, E_probe):
    """Sign checks linking the convexity index to the T-ordering at d = 3.

    Identity one compares sgn(kappa + 1) with sgn(1 - phi); identity two
    compares sgn(kappa - 2) with sgn(1 - 2 phi).  The kappa side is probed
    on 256 log-spaced radii inside the classically accessible region
    r < r_t of the slice p holds at E_probe; a mixed sign there makes the
    identity not applicable.
    """
    s = p.slice_at(E_probe)
    phi = phi_additive(s, 3)
    r_t = s.r_t if math.isfinite(s.r_t) else 1e3 * s.r_m
    radii = np.geomspace(1e-3 * r_t, r_t, 256)
    kappas = np.asarray([float(p.kappa(r)) for r in radii])

    checks = []
    for name, offset, phi_side in (("kappa_plus_one", 1.0, 1.0 - phi),
                                   ("kappa_minus_two", -2.0, 1.0 - 2.0 * phi)):
        signs = {_sign(k + offset) for k in kappas}
        if len(signs) == 1:
            k_sign = signs.pop()
            verdict = "agree" if k_sign == _sign(phi_side) else "disagree"
        else:
            k_sign = None
            verdict = "not-applicable"
        checks.append(SignIdentityCheck(name=name, kappa_sign=k_sign,
                                        phi_sign=_sign(phi_side), verdict=verdict))
    return OrderingSignReport(potential=p.spec_string(), E=E_probe, phi=phi,
                              kappa_min=float(np.min(kappas)), kappa_max=float(np.max(kappas)),
                              checks=tuple(checks))


def _lambda_factor(lam):
    """(lam+1)ln(lam+1) + (lam-1)ln(lam-1) - 2 lam ln lam; positive by convexity."""
    if lam <= 1:
        raise ValueError("need lambda > 1")
    return ((lam + 1.0) * math.log(lam + 1.0) + (lam - 1.0) * math.log(lam - 1.0)
            - 2.0 * lam * math.log(lam))


@dataclass(frozen=True)
class ReggeCheck:
    lam: float
    second_difference: float
    lambda_factor: float
    lhs_sign: int
    rhs_sign: int
    verdict: str


@dataclass(frozen=True)
class ReggeSignReport:
    mu: float
    d: int
    chi1: float
    chi_inf: float
    checks: tuple


def regge_sign_check(mu, l_values, d=3):
    """Second-difference sign test of the non-linear quantum number for
    power-law wells: sgn((chi_inf - chi_1) * Lambda) must equal sgn(2 - mu).

    ``l_values`` may be non-integer for diagnostic sweeps; each needs
    lambda - 1 > 0.
    """
    from .transforms import chi_power_law_closed

    if not mu > -1:
        raise ValueError("sign test defined for mu > -1")
    c1 = chi_power_law_closed(mu, 1)
    c_inf = 1.0 / math.sqrt(mu + 2.0)
    rhs = _sign(2.0 - mu, tol=1e-12)
    checks = []
    for l in l_values:
        lam = l + 0.5 * (d - 2)
        if not lam - 1.0 > 0.0:
            raise ValueError(f"need lambda - 1 > 0, got lambda = {lam}")
        big_lambda = _lambda_factor(lam)
        # the amplitude drops out of the second difference; any A > lam+1 works
        a_ref = 2.0 * (lam + 1.0)
        f = lambda x: c1 * x + (c1 - c_inf) * x * math.log(x / a_ref)
        second = f(lam + 1.0) - 2.0 * f(lam) + f(lam - 1.0)
        direct = (c1 - c_inf) * big_lambda
        if abs(second - direct) > 1e-9 * max(1.0, abs(second)):
            raise TeffError("second-difference identity failed internally")
        lhs = _sign((c_inf - c1) * big_lambda, tol=1e-8)
        checks.append(ReggeCheck(lam=lam, second_difference=second,
                                 lambda_factor=big_lambda, lhs_sign=lhs, rhs_sign=rhs,
                                 verdict="agree" if lhs == rhs else "disagree"))
    return ReggeSignReport(mu=mu, d=d, chi1=c1, chi_inf=c_inf, checks=tuple(checks))


# --------------------------------------------------------------------------
# universal diagram
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class DiagramLine:
    label: str
    n_r: int
    l: int
    points: tuple  # ((phi, T), ...)


@dataclass(frozen=True)
class DiagramCurve:
    label: str
    points: tuple  # ((phi, t_value, E), ...)
    notes: tuple = ()


@dataclass(frozen=True)
class DiagramCrossing:
    line_label: str
    curve_label: str
    phi: float
    t_value: float
    E: float


@dataclass(frozen=True)
class DiagramData:
    """Level lines T(phi), per-potential curves (phi(E), A chi_1), and the
    crossings that mark actual bound states."""

    d: int
    lines: tuple
    curves: tuple
    crossings: tuple


def _curve_point(s, d):
    """(phi, A chi_1) on the slice s."""
    return phi_additive(s, d), chi_d(s, 1.0) * s.A


def _held_bracket(gap, lo, g_lo, hi, held):
    """Narrow the sign change of ``gap`` on [lo, hi], where gap(lo) = g_lo,
    to the nearest energies in ``held`` around it, by bisection over the
    held energies inside; those slices are already analysed, so this costs
    no slice, and a gap with one sign change on [lo, hi] evaluates on
    about log2 of them."""
    inner = sorted(E for E in held if lo < E < hi)
    while inner:
        i = len(inner) // 2
        try:
            g = gap(inner[i])
        except TeffError:  # a held energy whose curve point cannot be formed
            del inner[i]
            continue
        if g == 0.0 or (g > 0.0) != (g_lo > 0.0):
            hi, inner = inner[i], inner[:i]
        else:
            lo, g_lo, inner = inner[i], g, inner[i + 1:]
    return lo, hi


def diagram_data(levels, phi_range, curve_specs, d=3):
    """Assemble the universal diagram.

    ``curve_specs`` is a sequence of (potential, energy grid) pairs; bad
    curve points are dropped with a note.  Crossings are located by sign
    change of (curve - line) over the energy grid and refined by brentq
    in E (to rtol 1e-10), on a bracket narrowed to the nearest energies
    whose slices the potential already holds (``p.held_energies()``):
    the grid, the searches of earlier crossings, and any solve run on the
    same object before.  After ``enumerate_bound_states`` on p, each
    crossing of an enumerated level usually lies between two held
    energies closer than brentq's tolerance, so it costs no new slice.
    Every slice analysed here stays on p (about 1 KB each; a new
    ``parse_potential`` starts empty).  The curve points are the same
    bits whatever p holds; a crossing's last bits, inside rtol 1e-10,
    depend on the slices already held.
    """
    phi_lo, phi_hi = phi_range
    if not (0.0 < phi_lo < phi_hi <= 2.5):
        raise ValueError("phi range must satisfy 0 < lo < hi <= 2.5")
    phis = np.linspace(phi_lo, phi_hi, _PHI_SAMPLES)
    lines = tuple(
        DiagramLine(label=spectroscopic_label(lvl.n_r, lvl.l, d), n_r=lvl.n_r, l=lvl.l,
                    points=tuple((float(f), teff(lvl, float(f))) for f in phis))
        for lvl in levels)

    curves = []
    crossings = []
    for p, e_grid in curve_specs:
        label = p.spec_string()
        pts = []
        notes = []
        for E in e_grid:
            try:
                phi, t_val = _curve_point(p.slice_at(E), d)
            except TeffError as exc:
                notes.append(f"E={E:g} skipped: {exc}")
                continue
            pts.append((phi, t_val, float(E)))
        curves.append(DiagramCurve(label=label, points=tuple(pts), notes=tuple(notes)))

        for lvl in levels:
            gap = []
            for phi, t_val, E in pts:
                gap.append((E, t_val - teff(lvl, phi)))
            for (e0, g0), (e1, g1) in zip(gap, gap[1:]):
                if g0 == 0.0 or g0 * g1 >= 0.0:
                    continue
                func = lambda E: (lambda pt: pt[1] - teff(lvl, pt[0]))(
                    _curve_point(p.slice_at(E), d))
                (lo, g_lo), (hi, _) = sorted(((e0, g0), (e1, g1)))
                lo, hi = _held_bracket(func, lo, g_lo, hi, p.held_energies())
                e_star = brentq(func, lo, hi, rtol=1e-10, maxiter=200)
                phi_star, t_star = _curve_point(p.slice_at(e_star), d)
                crossings.append(DiagramCrossing(
                    line_label=spectroscopic_label(lvl.n_r, lvl.l, d),
                    curve_label=label, phi=phi_star, t_value=t_star, E=float(e_star)))
    return DiagramData(d=d, lines=lines, curves=tuple(curves), crossings=tuple(crossings))


def diagram_to_csv(dd):
    """CSV body with kind,label,x,y rows (4-decimal rounding; labels that
    carry commas, such as potential specs, are quoted)."""
    import csv
    import io

    buf = io.StringIO()
    buf.write("# universal level diagram; values rounded to 4 decimals\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("kind", "label", "x", "y"))
    for line in dd.lines:
        for phi, t in line.points:
            writer.writerow(("line", line.label, f"{phi:.4f}", f"{t:.4f}"))
    for curve in dd.curves:
        for phi, t, _E in curve.points:
            writer.writerow(("curve", curve.label, f"{phi:.4f}", f"{t:.4f}"))
    for x in dd.crossings:
        writer.writerow(("crossing", f"{x.line_label}|{x.curve_label}",
                         f"{x.phi:.4f}", f"{x.t_value:.4f}"))
    return buf.getvalue()


def diagram_to_json(dd):
    """JSON-serialisable dict (schema 1) with full-precision points."""
    return {
        "schema": 1,
        "d": dd.d,
        "lines": [{"label": li.label, "n_r": li.n_r, "l": li.l,
                   "points": [[p, t] for p, t in li.points]} for li in dd.lines],
        "curves": [{"label": c.label,
                    "points": [[p, t, e] for p, t, e in c.points],
                    "notes": list(c.notes)} for c in dd.curves],
        "crossings": [{"line": x.line_label, "curve": x.curve_label,
                       "phi": x.phi, "t": x.t_value, "energy": x.E}
                      for x in dd.crossings],
    }
