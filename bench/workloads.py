"""The three benchmark workloads: seeded request streams, the request
itself (a call into teff's public API), and the reference checks.

Every stream starts with fixed anchor items whose outputs are pinned in
``anchors.json``, then repeats a *deck* of strata forever.  A deck holds
one item per stratum in a seeded order, and the seed also draws each
item's continuous parameters inside the stratum's band.  So every seed
gets the same family mix per deck, which keeps runs with different seeds
comparable, while the inputs themselves differ from seed to seed.

A run ends only at a deck boundary (see worker.py), so it always covers
the anchors and whole decks.  Parameter bands are chosen so that the
work per item is alike within a stratum: screened wells and quarkonium
hold exactly three levels below emax, Coulomb wells 20, linear wells 19
and oscillator wells 31.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass

import teff
from teff import QuantumLevel

import refs

HERE = os.path.dirname(os.path.abspath(__file__))
ANCHORS_PATH = os.path.join(HERE, "anchors.json")

# tolerances: the repository's own tests and battery where they have one
SPECTRUM_CLOSED_TOL = 1e-6      # acceptance criterion 4
CROSSING_TOL = 1e-8             # diagram crossing vs quantize_energy (~5e-10 seen)
CHI_CLOSED_TOL = 1e-8           # power-law and hard-wall chi_d
ORACLE_CLOSED_TOL = 1e-5        # tests/test_oracle.py, Coulomb and oscillator
ORACLE_AIRY_ABS = 1e-5          # tests/test_oracle.py at b = 1; scaled by b^(2/3)
ORACLE_BESSEL_TOL = 1e-8        # tests/test_oracle.py, hard wall

DIAGRAM_PHI_RANGE = (0.1, 2.2)  # the `teff diagram` defaults
D = 3


@dataclass(frozen=True)
class Outcome:
    """What one request produced: work units, failed checks, layer facts."""

    units: int
    problems: tuple = ()
    iterations: tuple = ()
    crossings: int = 0


def _round(x):
    """Six significant digits, so the spec string parses back to the same float."""
    return float(f"{x:.6g}")


def fmt4(x):
    """A number as the CLI's CSV writes it."""
    return f"{x:.4f}"


def load_anchors():
    with open(ANCHORS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def _decks(rng, strata):
    """Endless items: each deck draws one item per stratum, in seeded order."""
    while True:
        order = list(strata)
        rng.shuffle(order)
        for make in order:
            yield make(rng)


# --------------------------------------------------------------------------
# solve-wells: enumerate_bound_states + diagram_data on one well
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Well:
    tag: str
    spec: str
    emax: float
    l_max: int
    grid: tuple
    closed: tuple | None = None    # ("coulomb", Z) or ("oscillator", b)


def _geometric(lo, hi, n=12):
    """n energies from lo to hi (both negative), evenly spaced in log |E|."""
    a, b = math.log(-lo), math.log(-hi)
    return tuple(_round(-math.exp(a + (b - a) * k / (n - 1))) for k in range(n))


def _linear(lo, hi, n=12):
    return tuple(_round(lo + (hi - lo) * k / (n - 1)) for k in range(n))


def _screened_well(kind):
    # 1s, 2s and 2p lie below emax; 3s and 3p are solved and rejected
    def make(rng):
        Z = _round(rng.uniform(45.0, 55.0))
        emax = _round(-Z * Z * rng.uniform(0.046, 0.049))
        grid = _geometric(-Z * Z * rng.uniform(0.55, 0.65), emax)
        return Well(kind, f"screened:kind={kind},Z={Z:g}", emax, 1, grid)
    return make


def _quark_well(rng):
    # the three levels with E/B below 0.96 lie below emax; the next is above 1.13
    alpha = _round(rng.uniform(0.49, 0.51))
    delta = _round(rng.uniform(0.98, 1.02))
    B = _round(rng.uniform(2.9, 3.1))
    emax = _round(B * rng.uniform(1.02, 1.08))
    grid = _linear(-B * rng.uniform(0.5, 1.0), emax)
    return Well("quark", f"quark:alpha={alpha:g},delta={delta:g},B={B:g}", emax, 3, grid)


def _coulomb_well(rng):
    # the 20 levels with n_r + l + 1 <= 6 and l <= 4 lie below emax
    Z = _round(rng.uniform(0.5, 5.0))
    emax = _round(-Z * Z / (2.0 * rng.uniform(6.2, 6.8) ** 2))
    grid = _geometric(-Z * Z * rng.uniform(0.55, 0.65), emax)
    return Well("coulomb", f"power:b={-Z:g},mu=-1", emax, 4, grid, ("coulomb", Z))


def _linear_well(rng):
    # the 19 levels with l <= 4 and E / b^(2/3) below 6.48 lie below emax;
    # the next is at 6.79
    b = _round(rng.uniform(0.5, 3.0))
    scale = b ** (2.0 / 3.0)
    emax = _round(scale * rng.uniform(6.55, 6.72))
    grid = _linear(scale * rng.uniform(1.0, 1.4), emax)
    return Well("linear", f"power:b={b:g},mu=1", emax, 4, grid)


def _oscillator_well(rng):
    # the 31 levels with 2 n_r + l <= 13 and l <= 4 lie below emax
    b = _round(rng.uniform(0.2, 2.0))
    omega = math.sqrt(2.0 * b)
    emax = _round(omega * (14.5 + rng.uniform(0.2, 0.8)))
    grid = _linear(omega * rng.uniform(1.0, 1.4), emax)
    return Well("oscillator", f"power:b={b:g},mu=2", emax, 4, grid, ("oscillator", b))


def _anchor_grid(p):
    """The grid `teff diagram` used by default when the anchors were pinned."""
    if isinstance(p, teff.ScreenedCoulomb):
        return tuple(-p.Z**2 * 0.5 * 2.0 ** (-k) for k in range(18)) + (0.0,)
    if isinstance(p, teff.Quarkonium):
        return tuple(-6.0 * p.B * 2.0 ** (-k) for k in range(12)) + \
            tuple(p.B * k / 3.0 for k in range(1, 13))
    e0 = p.reference_energy()
    return tuple(e0 * 2.0 ** (k - 6) for k in range(13))


def _anchor_well(tag, spec, emax, l_max):
    return Well(tag, spec, emax, l_max, _anchor_grid(teff.parse_potential(spec)))


def solve_wells_anchors():
    return (
        # the enumeration of acceptance criterion 9 (23 levels)
        _anchor_well("anchor:yukawa50", "screened:kind=exp,Z=50", -0.05, 4),
        # the quarkonium enumeration of criterion 9 (16 levels)
        _anchor_well("anchor:quark", "quark:alpha=0.5,delta=1,B=3", 8.0, 3),
        # V = r, the single-pass (phi independent of E) solver path
        _anchor_well("anchor:linear", "power:b=1,mu=1", 5.0, 3),
        # Coulomb, the 10 levels with n_r + l + 1 <= 4
        Well("anchor:coulomb", "power:b=-1,mu=-1", -0.025, 3,
             _anchor_grid(teff.parse_potential("power:b=-1,mu=-1")), ("coulomb", 1.0)),
    )


# The level counts above make the deck's requests take alike times (within
# a factor of about 2.5), and two anchors are quicker and two slower than
# all of them, so the median latency is a middle request of the decks
# rather than a jump between two groups of requests far apart.
SOLVE_WELLS_STRATA = (_screened_well("exp"), _screened_well("inv2"), _screened_well("inv25"),
                      _quark_well, _coulomb_well, _oscillator_well, _linear_well)


def solve_well(w):
    p = teff.parse_potential(w.spec)
    entries = teff.enumerate_bound_states(p, w.emax, D, w.l_max)
    levels = [QuantumLevel(e.n_r, e.l, D) for e in entries]
    dd = teff.diagram_data(levels, DIAGRAM_PHI_RANGE, [(p, list(w.grid))], d=D)
    return p, entries, dd


def solve_well_rows(entries):
    """The anchor record: (n_r, l, T, E) as the CSV prints them."""
    return [[e.n_r, e.l, fmt4(e.T), fmt4(e.E)] for e in entries]


def run_solve_well(w, anchors):
    p, entries, dd = solve_well(w)
    problems = []
    by_label = {teff.spectroscopic_label(e.n_r, e.l, D): e.E for e in entries}
    # quarkonium energies run through zero, which is no threshold there: a
    # level near E = 0 is compared on the well's own energy unit B instead
    floor = p.B if isinstance(p, teff.Quarkonium) else 0.0
    for c in dd.crossings:
        e_level = by_label[c.line_label]
        if abs(c.E - e_level) > CROSSING_TOL * max(abs(e_level), floor):
            problems.append(f"{w.spec}: {c.line_label} crossing at E={c.E!r}, "
                            f"quantize_energy gives {e_level!r}")
    if w.closed is not None:
        kind, strength = w.closed
        exact = refs.coulomb_energy if kind == "coulomb" else refs.oscillator_energy
        for e in entries:
            ref = exact(strength, e.n_r, e.l, D)
            if refs.rel_dev(e.E, ref) > SPECTRUM_CLOSED_TOL:
                problems.append(f"{w.spec}: ({e.n_r},{e.l}) E={e.E!r}, closed form {ref!r}")
    if w.tag.startswith("anchor:"):
        if solve_well_rows(entries) != anchors["solve-wells"][w.tag]:
            problems.append(f"{w.tag}: levels differ from the pinned CSV values")
    return Outcome(units=len(entries), problems=tuple(problems),
                   iterations=tuple(e.iterations for e in entries),
                   crossings=len(dd.crossings))


# --------------------------------------------------------------------------
# chi-points: chi_profile at one (potential, energy)
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ChiPoint:
    tag: str
    spec: str
    E: float


# the `teff chi-table --suite table1` rows
TABLE1_ROWS = (
    ("screened:kind=exp,Z=1", 0.0),
    ("screened:kind=inv2,Z=1", 0.0),
    ("screened:kind=inv25,Z=1", 0.0),
    ("screened:kind=tf,Z=1", 0.0),
    ("power:b=-1,mu=-1", -0.5),
    ("power:b=1,mu=0.001", math.exp(0.001)),
    ("power:b=1,mu=1", math.exp(1.0)),
    ("power:b=1,mu=2", 1.0),
    ("power:b=1,mu=3", 1.0),
    ("wall:R=1", 2.0),
)


def chi_points_anchors():
    return tuple(ChiPoint(f"table1:{spec}", spec, e) for spec, e in TABLE1_ROWS)


def _power_point(mu_lo, mu_hi):
    def make(rng):
        mu = _round(rng.uniform(mu_lo, mu_hi))
        b = _round(rng.uniform(0.5, 3.0))
        if mu < 0:
            return ChiPoint("power", f"power:b={-b:g},mu={mu:g}", _round(-rng.uniform(0.1, 2.0)))
        return ChiPoint("power", f"power:b={b:g},mu={mu:g}", _round(rng.uniform(0.1, 5.0)))
    return make


def _wall_point(rng):
    R = _round(rng.uniform(0.5, 3.0))
    return ChiPoint("wall", f"wall:R={R:g}", _round(rng.uniform(0.5, 5.0) / (R * R)))


def _screened_point(kind, threshold):
    def make(rng):
        Z = _round(rng.uniform(1.0, 60.0))
        E = 0.0 if threshold else _round(-Z * Z * rng.uniform(0.001, 0.2))
        return ChiPoint(kind, f"screened:kind={kind},Z={Z:g}", E)
    return make


def _quark_point(rng):
    alpha = _round(rng.uniform(0.2, 0.8))
    delta = _round(rng.uniform(0.5, 2.0))
    B = _round(rng.uniform(1.0, 5.0))
    return ChiPoint("quark", f"quark:alpha={alpha:g},delta={delta:g},B={B:g}",
                    _round(B * rng.uniform(-1.0, 3.0)))


CHI_POINTS_STRATA = (
    _power_point(-1.9, -1.0), _power_point(-1.0, -0.05), _power_point(0.05, 1.0),
    _power_point(1.0, 2.5), _power_point(2.5, 4.0), _power_point(4.0, 6.0),
    _power_point(6.0, 8.0), _power_point(-1.0, -1.0), _power_point(2.0, 2.0),
    _wall_point, _wall_point,
    _screened_point("exp", True), _screened_point("exp", False),
    _screened_point("inv2", True), _screened_point("inv2", False),
    _screened_point("inv25", True), _screened_point("inv25", False),
    _screened_point("tf", True), _screened_point("tf", False), _screened_point("tf", False),
    _quark_point, _quark_point,
)


def chi_point_row(prof):
    """The anchor record: the chi-table CSV columns chi_inf .. phi_m3."""
    return [fmt4(v) for v in (prof.chi_inf, prof.chi[3], prof.chi[2], prof.chi1,
                              prof.phi_additive[3], prof.phi_additive[2], prof.phi_mult[3])]


def run_chi_point(pt, anchors):
    p = teff.parse_potential(pt.spec)
    prof = teff.chi_profile(p, pt.E, ds=(2, 3))
    got = {1: prof.chi1, 2: prof.chi[2], 3: prof.chi[3]}
    problems = []
    ref = None
    if isinstance(p, teff.PowerLaw):
        ref = {d: teff.chi_power_law_closed(p.mu, d) for d in got}
    elif isinstance(p, teff.HardWall):
        ref = {d: refs.wall_chi(d) for d in got}
    if ref is not None:
        for d in got:
            if refs.rel_dev(got[d], ref[d]) > CHI_CLOSED_TOL:
                problems.append(f"{pt.spec} E={pt.E!r}: chi_{d}={got[d]!r}, closed form {ref[d]!r}")
    if pt.tag.startswith("table1:"):
        if chi_point_row(prof) != anchors["chi-points"][pt.tag]:
            problems.append(f"{pt.tag}: row differs from the pinned CSV values")
    return Outcome(units=1, problems=tuple(problems))


# --------------------------------------------------------------------------
# oracle-levels: solve_bound_state for one level
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class OracleLevel:
    tag: str
    spec: str
    n_r: int
    l: int
    d: int
    closed: tuple | None = None    # (kind, strength) for refs


def oracle_levels_anchors():
    # two of the levels acceptance criterion 9 solves
    return (OracleLevel("anchor:yukawa50", "screened:kind=exp,Z=50", 2, 3, 3),
            OracleLevel("anchor:quark", "quark:alpha=0.5,delta=1,B=3", 1, 2, 3))


# each stratum is one level shape (d, n_r, l); the seed draws the strength
# (or the wall radius) and the order, so the work per deck stays the same


def _oracle_coulomb(d, n_r, l):
    def make(rng):
        Z = _round(rng.uniform(0.5, 3.0))
        return OracleLevel("coulomb", f"power:b={-Z:g},mu=-1", n_r, l, d, ("coulomb", Z))
    return make


def _oracle_oscillator(d, n_r, l):
    def make(rng):
        b = _round(rng.uniform(0.2, 2.0))
        return OracleLevel("oscillator", f"power:b={b:g},mu=2", n_r, l, d, ("oscillator", b))
    return make


def _oracle_linear(n_r):
    def make(rng):
        b = _round(rng.uniform(0.5, 3.0))
        return OracleLevel("linear", f"power:b={b:g},mu=1", n_r, 0, 3, ("linear", b))
    return make


def _oracle_wall(d, n_r, l):
    def make(rng):
        R = _round(rng.uniform(0.5, 3.0))
        return OracleLevel("wall", f"wall:R={R:g}", n_r, l, d, ("wall", R))
    return make


ORACLE_STRATA = (
    _oracle_coulomb(2, 0, 0), _oracle_coulomb(3, 1, 2), _oracle_coulomb(5, 3, 1),
    _oracle_oscillator(2, 1, 1), _oracle_oscillator(3, 2, 1), _oracle_oscillator(5, 0, 3),
    _oracle_linear(1), _oracle_wall(3, 2, 1), _oracle_wall(2, 1, 0),
)


def oracle_reference(item):
    """(reference energy, allowed absolute deviation) from the closed forms."""
    kind, s = item.closed
    if kind == "coulomb":
        ref = refs.coulomb_energy(s, item.n_r, item.l, item.d)
        return ref, ORACLE_CLOSED_TOL * abs(ref)
    if kind == "oscillator":
        ref = refs.oscillator_energy(s, item.n_r, item.l, item.d)
        return ref, ORACLE_CLOSED_TOL * abs(ref)
    if kind == "linear":
        return refs.linear_energy(s, item.n_r), ORACLE_AIRY_ABS * s ** (2.0 / 3.0)
    ref = refs.wall_energy(s, item.n_r, item.l, item.d)
    return ref, ORACLE_BESSEL_TOL * abs(ref)


def run_oracle_level(item, anchors):
    p = teff.parse_potential(item.spec)
    E = teff.solve_bound_state(p, QuantumLevel(item.n_r, item.l, item.d))
    problems = []
    if item.closed is not None:
        ref, tol = oracle_reference(item)
        if abs(E - ref) > tol:
            problems.append(f"{item.spec} ({item.n_r},{item.l},d={item.d}): E={E!r}, "
                            f"closed form {ref!r}")
    if item.tag.startswith("anchor:"):
        if fmt4(E) != anchors["oracle-levels"][item.tag]:
            problems.append(f"{item.tag}: E={E!r} differs from the pinned value")
    return Outcome(units=1, problems=tuple(problems))


# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    anchors: object        # () -> tuple of anchor items
    strata: tuple
    run: object            # (item, pinned anchors) -> Outcome
    unit: str
    trace_decks: int       # decks after the anchors in a traced run
    tf_table: bool = False

    def attempt(self, item, anchors):
        """Run one request; a request that raises fails its checks."""
        try:
            return self.run(item, anchors)
        except Exception as exc:  # noqa: BLE001 - every failure counts, none stops the run
            return Outcome(units=0, problems=(f"{item.spec}: {type(exc).__name__}: {exc}",))

    def stream(self, seed):
        """Anchors, then seeded decks, forever."""
        yield from self.anchors()
        yield from _decks(random.Random(seed), self.strata)


WORKLOADS = {
    "solve-wells": Workload("solve-wells", solve_wells_anchors, SOLVE_WELLS_STRATA,
                            run_solve_well, "level", trace_decks=1),
    "chi-points": Workload("chi-points", chi_points_anchors, CHI_POINTS_STRATA,
                           run_chi_point, "point", trace_decks=8,
                           tf_table=True),
    "oracle-levels": Workload("oracle-levels", oracle_levels_anchors, ORACLE_STRATA,
                              run_oracle_level, "level", trace_decks=1),
}
