import csv
import hashlib
import io
import json
import math
import time

import pytest
from click.testing import CliRunner

import teff
from teff import cli as cli_module
from teff.cli import cli, main
from teff.ordering import (
    MAX_SHELLS,
    ShellEntry,
    ShellSequence,
    degeneracy,
    spectroscopic_label,
)

MADELUNG = ["1s", "2s", "2p", "3s", "3p", "4s", "3d", "4p", "5s", "4d", "5p", "6s", "4f"]


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def run_cli(run_python):
    """The CLI run as the installed script would be."""
    return lambda *args: run_python("-m", "teff.cli", *args)


class TestOrder:
    def test_madelung_csv(self, runner):
        result = runner.invoke(cli, ["order", "--phi", "1.75", "--d", "3",
                                     "--count", "13", "--spin", "2"])
        assert result.exit_code == 0
        lines = result.output.strip().splitlines()
        assert lines[0].startswith("#") and "4 decimal" in lines[0]
        rows = list(csv.reader(io.StringIO("\n".join(lines[1:]))))
        labels = [r[0] for r in rows[1:]]
        assert labels == MADELUNG
        assert rows[-1][5] == "70"

    def test_coulomb_ties_flagged(self, runner):
        result = runner.invoke(cli, ["order", "--phi", "1", "--count", "6"])
        assert result.exit_code == 0
        assert "True" in result.output

    def test_json_schema(self, runner):
        result = runner.invoke(cli, ["order", "--phi", "0.3333", "--count", "8",
                                     "--format", "json"])
        obj = json.loads(result.output)
        assert obj["schema"] == 1
        assert len(obj["rows"]) == 8
        # full precision in JSON: at least six significant digits survive
        assert abs(obj["rows"][0]["T"] - (0.5 + 0.3333 * 0.5)) < 1e-12

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_heap_merge_matches_full_sort(self, runner, monkeypatch, d):
        # the exact tie slopes 1/3, 1/2, 2/3, 1, 2 exercise the tie flags
        grid = [0.25, 1 / 3, 0.37, 0.5, 2 / 3, 0.87, 1.0, 1.3, 1.75, 2.0, 2.5]
        for phi in grid:
            for count in (1, 2, 13, 60, 300):
                args = ["order", "--phi", repr(phi), "--d", str(d), "--count", str(count)]
                outputs = []
                for fmt in ("csv", "json"):
                    outputs.append(runner.invoke(cli, [*args, "--format", fmt]).output)
                reference = _sorted_shell_sequence(phi, d, count)
                with monkeypatch.context() as m:
                    m.setattr(cli_module, "shell_sequence", lambda *a, **k: reference)
                    for fmt in ("csv", "json"):
                        outputs.append(runner.invoke(cli, [*args, "--format", fmt]).output)
                assert outputs[:2] == outputs[2:], (phi, count)

    def test_tiny_phi_ends_at_once(self):
        # a full sort would build (count + 3) (count + 2) / phi candidates
        start = time.perf_counter()
        assert main(["order", "--phi", "1e-300", "--count", "3"]) == 0
        assert time.perf_counter() - start < 1.0


def _sorted_shell_sequence(phi, d, count, spin=1):
    """The shell sequence as a sort of every candidate shell that can be
    among the first ``count``; the reference for the heap merge."""
    n_max = count + 2
    l_max = int(math.ceil((count + 2) / phi)) + 2
    lam = [l + 0.5 * (d - 2) for l in range(l_max + 1)]  # as QuantumLevel.lam
    candidates = sorted(((n_r + 0.5) + phi * lam[l], l, n_r)
                        for n_r in range(n_max + 1) for l in range(l_max + 1))
    picked = candidates[:count]

    entries = []
    cumulative = 0
    for idx, (t, l, n_r) in enumerate(picked):
        tied = False
        if idx > 0 and math.isclose(t, picked[idx - 1][0], rel_tol=1e-12, abs_tol=1e-12):
            tied = True
        if idx + 1 < len(picked) and math.isclose(t, picked[idx + 1][0], rel_tol=1e-12, abs_tol=1e-12):
            tied = True
        deg = degeneracy(l, d, spin)
        cumulative += deg
        entries.append(ShellEntry(n_r=n_r, l=l, label=spectroscopic_label(n_r, l, d),
                                  T=t, degeneracy=deg, cumulative=cumulative, tied=tied))
    return ShellSequence(phi=phi, d=d, spin=spin, entries=tuple(entries))


class TestChiTable:
    def test_single_row(self, runner):
        result = runner.invoke(cli, ["chi-table", "--potential", "power:b=1,mu=1"])
        assert result.exit_code == 0
        lines = result.output.strip().splitlines()
        row = next(csv.reader(io.StringIO(lines[-1])))
        assert row[0] == "power:b=1,mu=1"
        assert float(row[6]) == pytest.approx(0.5435, abs=2e-3)  # phi_3

    def test_inv2_all_two(self, runner):
        result = runner.invoke(cli, ["chi-table", "--potential",
                                     "screened:kind=inv2,Z=1", "--energy", "0"])
        row = next(csv.reader(io.StringIO(result.output.strip().splitlines()[-1])))
        for cell in row[2:]:
            assert float(cell) == pytest.approx(2.0, abs=1e-3)

    def test_requires_input(self, runner):
        result = runner.invoke(cli, ["chi-table"])
        assert result.exit_code != 0

    def test_determinism(self, runner, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (out1, out2):
            res = runner.invoke(cli, ["chi-table", "--potential", "power:b=1,mu=2",
                                      "-o", str(out)])
            assert res.exit_code == 0
        assert out1.read_bytes() == out2.read_bytes()


_YUKAWA50_ENUMERATION = ["spectrum", "--potential", "screened:kind=exp,Z=50", "--enumerate",
                         "--emax", "-0.05", "--lmax", "4"]
# its rows as the phi fixed-point solver printed them, without the
# iterations column (that solver's outer passes)
_YUKAWA50_ROWS = """
0,0,3,1.0000,-1200.6499,linear,1.0001,0.0000
1,0,3,2.0006,-265.2029,linear,1.0011,0.0000
0,1,3,2.0017,-264.8562,linear,1.0011,0.0000
2,0,3,3.0026,-94.8247,linear,1.0053,0.0000
1,1,3,3.0080,-94.3539,linear,1.0053,0.0000
0,2,3,3.0134,-93.8793,linear,1.0053,0.0000
3,0,3,4.0078,-38.1912,linear,1.0156,0.0000
2,1,3,4.0237,-37.6492,linear,1.0158,0.0000
1,2,3,4.0401,-37.0982,linear,1.0160,0.0000
0,3,3,4.0570,-36.5380,linear,1.0163,0.0000
4,0,3,5.0180,-14.8175,linear,1.0360,0.0000
3,1,3,5.0556,-14.2692,linear,1.0371,0.0000
2,2,3,5.0954,-13.7060,linear,1.0382,0.0000
1,3,3,5.1379,-13.1261,linear,1.0394,0.0000
0,4,3,5.1833,-12.5277,linear,1.0407,0.0000
5,0,3,6.0368,-4.6676,linear,1.0736,0.0000
4,1,3,6.1165,-4.1937,linear,1.0776,0.0000
3,2,3,6.2059,-3.7026,linear,1.0824,0.0000
2,3,3,6.3083,-3.1904,linear,1.0881,0.0000
1,4,3,6.4290,-2.6512,linear,1.0953,0.0000
6,0,3,7.0728,-0.7477,linear,1.1456,0.0000
5,1,3,7.2456,-0.4634,linear,1.1637,0.0000
4,2,3,7.4841,-0.1943,linear,1.1936,0.0000
"""


_TABLE1_CSV = """\
# teff chi-table; numeric values rounded to 4 decimal places
potential,energy,chi_inf,chi_3,chi_2,chi_1,phi_3,phi_2,phi_m3
"screened:kind=exp,Z=1",E=0,1.4142,1.3764,1.3591,1.3155,1.2851,1.2718,1.2861
"screened:kind=inv2,Z=1",E=0,2.0000,2.0000,2.0000,2.0000,2.0000,2.0000,2.0000
"screened:kind=inv25,Z=1",E=0,1.8257,1.8031,1.7930,1.7691,1.7521,1.7451,1.7523
"screened:kind=tf,Z=1",E=0,1.9377,1.8770,1.8506,1.7874,1.7425,1.7241,1.7442
"power:b=-1,mu=-1",any E,1.0000,1.0000,1.0000,1.0000,1.0000,1.0000,1.0000
"power:b=1,mu=0.001",any E,0.7069,0.6880,0.6794,0.6576,0.6424,0.6358,0.6429
"power:b=1,mu=1",any E,0.5774,0.5671,0.5625,0.5513,0.5435,0.5402,0.5436
"power:b=1,mu=2",any E,0.5000,0.5000,0.5000,0.5000,0.5000,0.5000,0.5000
"power:b=1,mu=3",any E,0.4472,0.4566,0.4605,0.4692,0.4755,0.4779,0.4757
wall:R=1,any E,0.0001,0.2122,0.2500,0.3183,0.3714,0.3866,0.3898
"""
# the README diagram command; its 353-line CSV is pinned by its sha256
_README_DIAGRAM = ["diagram", "--potential", "screened:kind=exp,Z=50",
                   "--potential", "quark:alpha=0.5,delta=1,B=3", "--phi-max", "2.2"]
_README_DIAGRAM_SHA256 = "3f300efb0abea10bb146a2b4d676acc791f031912d6104900c0026225a86bf01"


class TestGoldenOutput:
    """Byte pins on the CSV of the two documented table and diagram runs."""

    def test_table1_csv(self, runner):
        result = runner.invoke(cli, ["chi-table", "--suite", "table1"])
        assert result.exit_code == 0
        assert result.stdout == _TABLE1_CSV

    def test_readme_diagram_csv(self, runner):
        result = runner.invoke(cli, _README_DIAGRAM)
        assert result.exit_code == 0
        assert len(result.stdout.splitlines()) == 353
        assert hashlib.sha256(result.stdout.encode()).hexdigest() == _README_DIAGRAM_SHA256

    def test_coulomb_diagram_keeps_node_crossings(self, runner):
        # 1s and 2p lie on nodes of the default grid (E = -0.5 and -0.125),
        # where the gap is exactly 0; each is one crossing
        result = runner.invoke(cli, ["diagram", "--potential", "power:b=-1,mu=-1"])
        assert result.exit_code == 0
        crossings = [row for row in result.stdout.splitlines() if row.startswith("crossing,")]
        assert len(crossings) == 21
        labels = [row.split(",")[1].strip('"').split("|")[0] for row in crossings]
        assert labels.count("1s") == labels.count("2p") == 1

    def test_readme_diagram_work(self, runner, slice_counts):
        # 235 energies with each crossing bracketed by the nearest energies
        # the curve already holds; 256 when every search spanned its whole
        # grid interval
        assert runner.invoke(cli, _README_DIAGRAM).exit_code == 0
        assert len(slice_counts) <= 235


class TestSpectrum:
    def test_levels(self, runner):
        result = runner.invoke(cli, ["spectrum", "--potential", "power:b=-1,mu=-1",
                                     "--levels", "0:0,1:0,0:1", "--format", "json"])
        assert result.exit_code == 0
        rows = json.loads(result.output)["rows"]
        assert rows[0]["E"] == pytest.approx(-0.5, rel=1e-8)
        assert rows[1]["E"] == pytest.approx(-0.125, rel=1e-8)
        assert rows[2]["E"] == pytest.approx(-0.125, rel=1e-8)

    def test_enumerate(self, runner):
        result = runner.invoke(cli, ["spectrum", "--potential", "screened:kind=exp,Z=10",
                                     "--enumerate", "--emax", "-0.01", "--lmax", "1",
                                     "--format", "json"])
        assert result.exit_code == 0
        rows = json.loads(result.output)["rows"]
        energies = [r["E"] for r in rows]
        assert energies == sorted(energies)

    def test_yukawa_enumeration_golden(self, runner):
        result = runner.invoke(cli, _YUKAWA50_ENUMERATION)
        assert result.exit_code == 0
        lines = result.output.strip().splitlines()
        header, *rows = csv.reader(io.StringIO("\n".join(lines[1:])))
        assert header == ["n_r", "l", "d", "T", "E", "mode", "phi", "iterations", "residual"]
        at = header.index("iterations")
        assert all(row[at] == "1" for row in rows)
        assert [row[:at] + row[at + 1:] for row in rows] == [
            row.split(",") for row in _YUKAWA50_ROWS.split()]

    def test_yukawa_enumeration_work(self, runner, slice_counts):
        # the cap test and the shared ladder of rungs below the threshold
        # analyse 164 energies; one bracketed root per level, each level
        # above the cap solved too, analysed 322, and the phi fixed point
        # around repeated root solves 1775
        assert runner.invoke(cli, _YUKAWA50_ENUMERATION).exit_code == 0
        assert len(slice_counts) <= 164

    def test_quark_enumeration_work(self, runner, slice_counts):
        # 105 energies with the cap test; 135 when each channel's first
        # level above the cap was solved too
        result = runner.invoke(cli, ["spectrum", "--potential", "quark:alpha=0.5,delta=1,B=3",
                                     "--enumerate", "--emax", "8", "--lmax", "3"])
        assert result.exit_code == 0
        assert len(slice_counts) <= 105

    def test_hard_wall_level_near_float_max(self, run_cli):
        # the ground state 2.32014 / R^2 lies far above a fixed bracket budget;
        # the level scales exactly as 1/R^2
        ground = teff.quantize_energy(teff.HardWall(R=1.0), teff.QuantumLevel(0, 0, 3)).E
        proc = run_cli("spectrum", "--potential", "wall:R=1e-150", "--levels", "0:0",
                       "--format", "json")
        assert proc.returncode == 0
        assert "Traceback" not in proc.stderr
        assert ground == pytest.approx(2.32014, abs=5e-6)
        assert json.loads(proc.stdout)["rows"][0]["E"] == pytest.approx(ground * 1e300, rel=1e-6)

    def test_enumerate_needs_emax(self, runner):
        result = runner.invoke(cli, ["spectrum", "--potential", "wall:R=1",
                                     "--enumerate"])
        assert result.exit_code != 0


class TestDiagram:
    def test_csv_output(self, runner, tmp_path):
        out = tmp_path / "diagram.csv"
        result = runner.invoke(cli, [
            "diagram", "--potential", "screened:kind=exp,Z=50",
            "--phi-max", "2.2", "--nr-max", "2", "--l-max", "2",
            "--e-grid", "-1200:-1:8", "-o", str(out)])
        assert result.exit_code == 0
        body = out.read_text().splitlines()
        kinds = {ln.split(",")[0] for ln in body[2:]}
        assert "line" in kinds and "curve" in kinds


# (command line, what its one configuration-error line names)
_BAD_ARGUMENTS = [
    (["order", "--phi", "-1", "--count", "3"], "phi"),
    (["order", "--phi", "1", "--count", "0"], "count"),
    (["order", "--phi", "1.75", "--count", str(MAX_SHELLS + 1)], "count"),
    (["order", "--phi", "inf", "--count", "3"], "phi"),
    (["diagram", "--potential", "power:b=1,mu=2", "--phi-max", "3"], "phi range"),
    (["spectrum", "--potential", "power:b=1,mu=2", "--enumerate", "--emax", "nan",
      "--lmax", "0"], "NaN"),
    (["chi-table", "--potential", "power:b=1,mu=2", "--energy", "nan"], "NaN"),
    (["spectrum", "--potential", "power:b=1,mu=2", "--enumerate", "--emax", "inf",
      "--lmax", "0"], "finite"),
    (["spectrum", "--potential", "power:b=-1,mu=-1", "--enumerate", "--emax", "0",
      "--lmax", "0"], "accumulate"),
    # family energy scales that divide by zero or overflow
    (["spectrum", "--potential", "wall:R=1e-300", "--levels", "0:0"], "energy scale"),
    (["spectrum", "--potential", "wall:R=1e300", "--levels", "0:0"], "energy scale"),
    (["spectrum", "--potential", "screened:kind=exp,Z=1e300", "--levels", "0:0"],
     "energy scale"),
    (["diagram", "--potential", "wall:R=1e-300"], "energy scale"),
    # a dimension below 2 or a negative index bound is the option's fault
    (["spectrum", "--potential", "power:b=1,mu=1", "--levels", "0:0", "--d", "1"], "'--d'"),
    (["order", "--phi", "1", "--count", "3", "--d", "1"], "'--d'"),
    (["diagram", "--potential", "power:b=1,mu=1", "--d", "1"], "'--d'"),
    (["spectrum", "--potential", "power:b=1,mu=1", "--enumerate", "--emax", "5",
      "--lmax", "-2"], "'--lmax'"),
    (["diagram", "--potential", "power:b=1,mu=1", "--nr-max", "-1"], "'--nr-max'"),
    (["diagram", "--potential", "power:b=1,mu=1", "--l-max", "-1"], "'--l-max'"),
    # a grid with no potential to draw on
    (["diagram", "--potential", "power:b=1,mu=1", "--e-grid", "1:5:3", "--e-grid", "1:9:4"],
     "--e-grid"),
]


class TestExitCodes:
    def test_config_error_is_2(self):
        assert main(["chi-table", "--potential", "power:b=1,mu=-3"]) == 2

    @pytest.mark.parametrize("args", [
        ["order", "--phi", "1", "--count", "3", "--bogus"],
        # the quadrature accuracy is fixed: no option sets it
        ["spectrum", "--potential", "power:b=1,mu=1", "--levels", "0:0", "--rel-tol", "1e-6"],
        ["chi-table", "--suite", "table1", "--tail-cut", "1e-10"],
        # the linear T is the only quantization: no option picks another
        ["spectrum", "--potential", "power:b=1,mu=1", "--levels", "0:0", "--mode", "nonlinear"],
    ])
    def test_unknown_flag_is_2(self, args, capsys):
        assert main(args) == 2
        assert "Traceback" not in capsys.readouterr().err

    def test_success_is_0(self):
        assert main(["order", "--phi", "1.75", "--count", "3"]) == 0

    def test_verify_suite_exit(self):
        assert main(["verify", "--suite", "signs", "--no-detail"]) == 0

    @pytest.mark.parametrize("args,named", _BAD_ARGUMENTS,
                             ids=[f"args{i}" for i in range(len(_BAD_ARGUMENTS))])
    def test_bad_argument_is_2(self, args, named, run_cli):
        proc = run_cli(*args)
        assert proc.returncode == 2
        assert "configuration error" in proc.stderr and named in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_quark_overflow_spectrum_is_3(self, run_cli):
        # r^delta overflows to +inf just beyond r = 1, a wall that W peaks on
        proc = run_cli("spectrum", "--potential", "quark:alpha=0.5,delta=1e300,B=3",
                       "--enumerate", "--emax", "8", "--lmax", "1")
        assert proc.returncode == 3
        assert "numerical failure" in proc.stderr and "overflows" in proc.stderr
        assert "Warning" not in proc.stderr and "Traceback" not in proc.stderr

    def test_quark_overflow_diagram_skips_points(self, run_cli):
        # the deep energies peak inside the wall at r = 1 and keep their points
        proc = run_cli("diagram", "--potential", "quark:alpha=0.5,delta=1e300,B=3",
                       "--format", "json")
        assert proc.returncode == 0
        curve = json.loads(proc.stdout)["curves"][0]
        assert curve["points"]
        assert curve["notes"] and all("overflows" in note for note in curve["notes"])
        assert "Warning" not in proc.stderr and "Traceback" not in proc.stderr

    def test_subnormal_grid_skips_points(self, run_cli):
        # the default grid reaches e0 2^-6 ~ 4e-310, where QAGS runs out of
        # subdivisions on a moment: that point is skipped with a note
        proc = run_cli("diagram", "--potential", "power:b=1e-308,mu=1", "--format", "json")
        assert proc.returncode == 0
        curve = json.loads(proc.stdout)["curves"][0]
        assert curve["points"]
        assert any("subdivisions" in note for note in curve["notes"])
        assert "Warning" not in proc.stderr and "Traceback" not in proc.stderr

    def test_wall_amplitude_overflow_is_3(self, run_cli):
        # sqrt(2E) R overflows at the reference energy 1/R^2 ~ 1e308
        proc = run_cli("spectrum", "--potential", "wall:R=1e-154", "--levels", "0:0")
        assert proc.returncode == 3
        assert "numerical failure" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("body", ["", "# r V\n"])
    def test_table_without_data_is_2(self, body, tmp_path, run_cli):
        path = tmp_path / "empty.dat"
        path.write_text(body)
        proc = run_cli("chi-table", "--potential", f"table:path={path}", "--energy", "-0.1")
        assert proc.returncode == 2
        assert "holds no data" in proc.stderr
        assert "Warning" not in proc.stderr and "Traceback" not in proc.stderr

    @pytest.mark.parametrize("n", ["1", "0"])
    def test_short_energy_grid_is_2(self, n, capsys):
        # one point leaves no spacing, and none would draw an empty curve
        assert main(["diagram", "--potential", "screened:kind=exp,Z=1",
                     "--e-grid", f"-1:-0.1:{n}"]) == 2
        err = capsys.readouterr().err
        assert "n >= 2" in err and "Traceback" not in err

    def test_cap_at_accumulation_point_is_rejected_at_once(self):
        # Coulomb levels pile up at E = 0: no level is solved before the exit
        start = time.perf_counter()
        code = main(["spectrum", "--potential", "power:b=-1,mu=-1", "--enumerate",
                     "--emax", "0", "--lmax", "0"])
        assert code == 2
        assert time.perf_counter() - start < 2.0


class TestVerifyCommand:
    def test_signs_suite(self, runner):
        result = runner.invoke(cli, ["verify", "--suite", "signs"])
        assert result.exit_code == 0
        assert "PASS criterion-7" in result.output

    def test_madelung_suite(self, runner):
        result = runner.invoke(cli, ["verify", "--suite", "madelung", "--no-detail"])
        assert result.exit_code == 0
        assert result.output.startswith("PASS")


class TestTable1Suite:
    def test_ten_rows(self, runner):
        result = runner.invoke(cli, ["chi-table", "--suite", "table1",
                                     "--format", "json"])
        assert result.exit_code == 0
        rows = json.loads(result.output)["rows"]
        assert len(rows) == 10
        by_pot = {r["potential"]: r for r in rows}
        inv2 = by_pot["screened:kind=inv2,Z=1"]
        for col in ("chi_inf", "chi_3", "chi_2", "chi_1", "phi_3", "phi_2", "phi_m3"):
            assert abs(inv2[col] - 2.0) < 2e-3
        wall = by_pot["wall:R=1"]
        assert abs(wall["phi_3"] - 0.371) < 2e-3


class TestDiagramJson:
    def test_json_output(self, runner, tmp_path):
        out = tmp_path / "diagram.json"
        result = runner.invoke(cli, [
            "diagram", "--potential", "quark:alpha=0.5,delta=1,B=3",
            "--nr-max", "1", "--l-max", "1", "--e-grid", "-2:8:6",
            "--format", "json", "-o", str(out)])
        assert result.exit_code == 0
        obj = json.loads(out.read_text())
        assert obj["schema"] == 1
        assert obj["lines"] and obj["curves"]
