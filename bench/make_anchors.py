"""Regenerate anchors.json, the pinned outputs of every workload's anchors.

    python3 bench/make_anchors.py

The chi-table and spectrum anchors are taken from the CLI's own CSV
output (4 decimals), and the benchmark's request path must reproduce
them byte for byte before anything is written.  Oracle anchors are the
4-decimal energies solve_bound_state returns.  Run this only when a
change is meant to alter these outputs, and say so in the change.
"""

from __future__ import annotations

import csv
import io
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from click.testing import CliRunner  # noqa: E402

import teff  # noqa: E402
from teff.cli import cli  # noqa: E402

import workloads as wl  # noqa: E402


def cli_csv(args):
    result = CliRunner().invoke(cli, args)
    if result.exit_code != 0:
        raise SystemExit(f"teff {' '.join(args)} failed: {result.output}")
    lines = [ln for ln in result.output.splitlines() if not ln.startswith("#")]
    return list(csv.DictReader(io.StringIO("\n".join(lines))))


def main():
    anchors = {"solve-wells": {}, "chi-points": {}, "oracle-levels": {}}

    table = {row["potential"]: row for row in cli_csv(["chi-table", "--suite", "table1"])}
    columns = ("chi_inf", "chi_3", "chi_2", "chi_1", "phi_3", "phi_2", "phi_m3")
    for pt in wl.chi_points_anchors():
        pinned = [table[pt.spec][c] for c in columns]
        ours = wl.chi_point_row(teff.chi_profile(teff.parse_potential(pt.spec), pt.E, ds=(2, 3)))
        if ours != pinned:
            raise SystemExit(f"{pt.tag}: benchmark row {ours} != CLI row {pinned}")
        anchors["chi-points"][pt.tag] = pinned

    for w in wl.solve_wells_anchors():
        rows = cli_csv(["spectrum", "--potential", w.spec, "--enumerate", "--emax", repr(w.emax),
                        "--lmax", str(w.l_max), "--d", str(wl.D)])
        pinned = [[int(r["n_r"]), int(r["l"]), r["T"], r["E"]] for r in rows]
        ours = wl.solve_well_rows(wl.solve_well(w)[1])
        if ours != pinned:
            raise SystemExit(f"{w.tag}: benchmark rows {ours} != CLI rows {pinned}")
        anchors["solve-wells"][w.tag] = pinned

    for item in wl.oracle_levels_anchors():
        E = teff.solve_bound_state(teff.parse_potential(item.spec),
                                   teff.QuantumLevel(item.n_r, item.l, item.d))
        anchors["oracle-levels"][item.tag] = wl.fmt4(E)

    with open(wl.ANCHORS_PATH, "w", encoding="utf-8") as fh:
        json.dump(anchors, fh, indent=1)
        fh.write("\n")
    print(f"wrote {wl.ANCHORS_PATH}")


if __name__ == "__main__":
    main()
