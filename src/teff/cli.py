"""Command-line front end.

Subcommands mirror the library pipeline: ``chi-table`` for the transform
table, ``order`` for shell-filling sequences, ``spectrum`` for level
energies, ``diagram`` for the universal (phi, T) diagram data, and
``verify`` for the acceptance battery.  Output is CSV (rounded to 4
decimals, noted in a header comment) or JSON (full precision, schema 1).

Exit codes: 0 success, 1 verification failure, 2 configuration error,
3 numerical failure.
"""

from __future__ import annotations

import json
import math
import sys

import click

from .errors import PotentialError, TeffError
from .ordering import (
    MAX_SHELLS,
    QuantumLevel,
    diagram_data,
    diagram_to_csv,
    diagram_to_json,
    shell_sequence,
)
from .potentials import parse_potential
from .spectrum import enumerate_bound_states, quantize_energy
from .transforms import chi_profile
from .verify import SUITES, run_suite


def _emit(rows, columns, fmt, output, command):
    """Write rows (list of dicts) as CSV or JSON to a file or stdout.

    Potential specs contain commas, so CSV fields are quoted properly.
    """
    if fmt == "csv":
        import csv
        import io

        buf = io.StringIO()
        buf.write(f"# teff {command}; numeric values rounded to 4 decimal places\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([f"{row[c]:.4f}" if isinstance(row[c], float) else row[c]
                             for c in columns])
        text = buf.getvalue()
    else:
        text = json.dumps({"schema": 1, "command": command, "columns": list(columns),
                           "rows": rows}, indent=2) + "\n"
    _write(text, output)


def _write(text, output):
    """Write text to the file ``output``, or to stdout when it is None."""
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)


_FORMAT_OPT = click.option("--format", "fmt", type=click.Choice(["csv", "json"]),
                           default="csv", show_default=True, help="Output format.")
_OUTPUT_OPT = click.option("--output", "-o", type=click.Path(dir_okay=False),
                           default=None, help="Output path (default: stdout).")
_DIM_OPT = click.option("--d", "dim", type=click.IntRange(min=2), default=3, show_default=True)


@click.group()
@click.version_option(package_name="teff")
def cli():
    """Effective quantum numbers for centrally symmetric potentials."""


_TABLE1_ROWS = (
    ("screened:kind=exp,Z=1", "E=0", 0.0),
    ("screened:kind=inv2,Z=1", "E=0", 0.0),
    ("screened:kind=inv25,Z=1", "E=0", 0.0),
    ("screened:kind=tf,Z=1", "E=0", 0.0),
    ("power:b=-1,mu=-1", "any E", -0.5),
    ("power:b=1,mu=0.001", "any E", math.exp(0.001)),
    ("power:b=1,mu=1", "any E", math.exp(1.0)),
    ("power:b=1,mu=2", "any E", 1.0),
    ("power:b=1,mu=3", "any E", 1.0),
    ("wall:R=1", "any E", 2.0),
)


@cli.command("chi-table")
@click.option("--potential", "specs", multiple=True, help="Potential spec (repeatable).")
@click.option("--energy", type=float, default=None,
              help="Energy for the row(s); defaults to a family-natural value.")
@click.option("--suite", type=click.Choice(["table1"]), default=None,
              help="Emit the canonical 10-row table instead of custom rows.")
@_FORMAT_OPT
@_OUTPUT_OPT
def cmd_chi_table(specs, energy, suite, fmt, output):
    """Transform values and slope estimators, one row per (potential, E)."""
    if suite == "table1":
        jobs = list(_TABLE1_ROWS)
    else:
        if not specs:
            raise click.UsageError("provide --potential or --suite table1")
        jobs = []
        for spec in specs:
            p = parse_potential(spec)
            e = energy if energy is not None else p.reference_energy()
            label = f"E={e:g}" if energy is not None else "default E"
            jobs.append((spec, label, e))

    columns = ("potential", "energy", "chi_inf", "chi_3", "chi_2", "chi_1",
               "phi_3", "phi_2", "phi_m3")
    rows = []
    failures = 0
    for spec, label, e in jobs:
        try:
            prof = chi_profile(parse_potential(spec), e, ds=(2, 3))
        except TeffError as exc:
            failures += 1
            click.echo(f"# row failed for {spec} at {label}: {exc}", err=True)
            continue
        rows.append({"potential": spec, "energy": label,
                     "chi_inf": prof.chi_inf, "chi_3": prof.chi[3],
                     "chi_2": prof.chi[2], "chi_1": prof.chi1,
                     "phi_3": prof.phi_additive[3], "phi_2": prof.phi_additive[2],
                     "phi_m3": prof.phi_mult[3]})
    _emit(rows, columns, fmt, output, "chi-table")
    if failures and not rows:
        raise SystemExit(3)


@cli.command("order")
@click.option("--phi", type=float, required=True, help="Slope weighting the orbital index.")
@_DIM_OPT
@click.option("--count", type=int, required=True,
              help=f"Number of shells to list, at most {MAX_SHELLS}.")
@click.option("--spin", type=click.Choice(["1", "2"]), default="1", show_default=True)
@_FORMAT_OPT
@_OUTPUT_OPT
def cmd_order(phi, dim, count, spin, fmt, output):
    """Shell-filling sequence in order of increasing T."""
    seq = shell_sequence(phi, dim, count, spin=int(spin))
    columns = ("label", "n_r", "l", "T", "degeneracy", "cumulative", "tied")
    rows = [{"label": e.label, "n_r": e.n_r, "l": e.l, "T": e.T,
             "degeneracy": e.degeneracy, "cumulative": e.cumulative,
             "tied": e.tied} for e in seq.entries]
    _emit(rows, columns, fmt, output, "order")


def _parse_levels(text, dim):
    levels = []
    for item in text.split(","):
        try:
            n_r, l = item.split(":")
            levels.append(QuantumLevel(int(n_r), int(l), dim))
        except (ValueError, TypeError) as exc:
            raise click.UsageError(f"bad level {item!r}; use n_r:l,...") from exc
    return levels


@cli.command("spectrum")
@click.option("--potential", "spec", required=True, help="Potential spec.")
@click.option("--levels", default=None, help="Comma list of n_r:l pairs.")
@click.option("--enumerate", "do_enum", is_flag=True,
              help="Enumerate all levels up to --emax instead of --levels.")
@click.option("--emax", type=float, default=None, help="Energy cap for --enumerate.")
@click.option("--lmax", type=click.IntRange(min=0), default=3, show_default=True)
@_DIM_OPT
@_FORMAT_OPT
@_OUTPUT_OPT
def cmd_spectrum(spec, levels, do_enum, emax, lmax, dim, fmt, output):
    """Approximate bound-state energies from the quantization condition."""
    p = parse_potential(spec)
    if do_enum:
        if emax is None:
            raise click.UsageError("--enumerate requires --emax")
        entries = enumerate_bound_states(p, emax, dim, lmax)
    else:
        if not levels:
            raise click.UsageError("provide --levels or --enumerate")
        entries = [quantize_energy(p, lvl) for lvl in _parse_levels(levels, dim)]
    columns = ("n_r", "l", "d", "T", "E", "mode", "phi", "iterations", "residual")
    # schema 1 keeps the mode column; the linear T is the only quantization
    rows = [{"n_r": e.n_r, "l": e.l, "d": e.d, "T": e.T, "E": e.E, "mode": "linear",
             "phi": e.phi, "iterations": e.iterations, "residual": e.residual}
            for e in entries]
    _emit(rows, columns, fmt, output, "spectrum")


@cli.command("diagram")
@click.option("--potential", "specs", multiple=True, required=True,
              help="Potential spec (repeatable, one curve each).")
@click.option("--phi-min", type=float, default=0.1, show_default=True)
@click.option("--phi-max", type=float, default=2.2, show_default=True)
@click.option("--nr-max", type=click.IntRange(min=0), default=5, show_default=True)
@click.option("--l-max", type=click.IntRange(min=0), default=3, show_default=True)
@click.option("--e-grid", "e_grids", multiple=True,
              help="lo:hi:n energy grid per potential (matched by order).")
@_DIM_OPT
@_FORMAT_OPT
@_OUTPUT_OPT
def cmd_diagram(specs, phi_min, phi_max, nr_max, l_max, e_grids, dim, fmt, output):
    """Level lines T(phi), per-potential curves and their crossings."""
    if len(e_grids) > len(specs):
        raise click.UsageError(f"{len(e_grids)} --e-grid values for {len(specs)} --potential; "
                               "give at most one grid per potential")
    levels = [QuantumLevel(n_r, l, dim)
              for n_r in range(nr_max + 1) for l in range(l_max + 1)]
    curve_specs = []
    for i, spec in enumerate(specs):
        p = parse_potential(spec)
        if i < len(e_grids):
            try:
                lo, hi, n = e_grids[i].split(":")
                if int(n) < 2:
                    raise ValueError("a grid needs n >= 2 points")
                grid = [float(lo) + (float(hi) - float(lo)) * k / (int(n) - 1)
                        for k in range(int(n))]
            except ValueError as exc:
                raise click.UsageError(
                    f"bad --e-grid {e_grids[i]!r}; use lo:hi:n with n >= 2") from exc
        else:
            grid = p.default_energy_grid()
        curve_specs.append((p, grid))

    dd = diagram_data(levels, (phi_min, phi_max), curve_specs, d=dim)
    if fmt == "csv":
        _write(diagram_to_csv(dd), output)
    else:
        _write(json.dumps(diagram_to_json(dd), indent=2) + "\n", output)


@cli.command("verify")
@click.option("--suite", type=click.Choice(sorted(SUITES)), default="all",
              show_default=True)
@click.option("--detail/--no-detail", default=True, show_default=True,
              help="Print per-check detail below each summary line.")
def cmd_verify(suite, detail):
    """Run the acceptance battery; exit 1 if any criterion fails."""
    results = run_suite(SUITES[suite])
    failed = False
    for res in results:
        click.echo(res.summary_line())
        if detail:
            click.echo(res.detail)
        failed |= not res.passed
    if failed:
        raise SystemExit(1)


def main(argv=None):
    """Entry point with the documented exit-code mapping."""
    try:
        cli.main(args=argv, standalone_mode=False)
    except SystemExit as exc:
        return exc.code
    except click.ClickException as exc:
        click.echo(f"configuration error: {exc.format_message()}", err=True)
        return 2
    except click.exceptions.Abort:
        return 2
    except (PotentialError, ValueError) as exc:
        # library functions raise ValueError for out-of-range arguments
        click.echo(f"configuration error: {exc}", err=True)
        return 2
    except TeffError as exc:
        click.echo(f"numerical failure: {exc}", err=True)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
