import csv
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import evla
from evla import cli, fluence, thermal, validate
from evla.validate import CriterionResult


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def test_registry_dump(tmp_path):
    out = tmp_path / "reg.csv"
    assert cli.main(["registry", "--out", str(out)]) == 0
    header, rows = _read_csv(str(out))
    assert header == ["material", "wavelength_nm", "key", "value", "unit",
                      "provenance"]
    mats = {r[0] for r in rows}
    assert {"blood", "wall", "pad", "skin"} <= mats
    # thermal rows carry no wavelength, optical rows do
    assert any(r[1] == "" and r[2] == "k" for r in rows)
    assert any(r[1] == "810" and r[2] == "mu_a" for r in rows)
    assert all(r[5] for r in rows)
    assert any(r[2] == "R_gas" for r in rows)


def test_fluence_csv_shape_and_causality(tmp_path):
    out = tmp_path / "flu.csv"
    rc = cli.main(["fluence", "--times", "0,5", "--grid", "12,14",
                   "--out", str(out)])
    assert rc == 0
    header, rows = _read_csv(str(out))
    assert header == ["r_mm", "z_mm", "t_s", "region", "phi_W_per_mm2"]
    z = np.linspace(-10.0, 10.0, 14)
    expect = 12 * (np.count_nonzero(z >= -1e-12)
                   + np.count_nonzero(z >= -5.0 - 1e-12))
    assert len(rows) == expect
    regions = {"fiber_column", "blood_annulus", "wall", "pad", "skin"}
    for r_mm, z_mm, t_s, region, phi in rows:
        assert region in regions
        assert float(z_mm) >= -float(t_s) - 1e-9   # v = 1 mm/s
        float(phi)  # parses
    # values are stable under a 9-significant-digit round trip
    assert all(row[4] == "%.9g" % float(row[4]) for row in rows)


def test_fluence_writes_stdout_by_default(capsys):
    assert cli.main(["fluence", "--times", "0", "--grid", "4,5"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "r_mm,z_mm,t_s,region,phi_W_per_mm2"
    assert len(lines) > 1


def test_temperature_csv_and_case2_warning(tmp_path, capsys):
    cfg = tmp_path / "case2.ini"
    cfg.write_text("[protocol]\nu = 70\n")
    out = tmp_path / "tmp.csv"
    rc = cli.main(["temperature", "--config", str(cfg), "--times", "0",
                   "--grid", "6,7", "--modes", "6", "--out", str(out)])
    assert rc == 0
    assert "u = 70" in capsys.readouterr().err
    header, rows = _read_csv(str(out))
    assert header == ["r_mm", "z_mm", "t_s", "region", "T_C"]
    assert len(rows) == 6 * 4      # z >= 0 only at t = 0
    # uniform start, up to the truncated 6-mode projection residual
    assert all(abs(float(r[4]) - 38.0) < 0.6 for r in rows)


def test_damage_table_matches_direct_call(tmp_path):
    out = tmp_path / "t3.csv"
    assert cli.main(["damage", "--table3", "--out", str(out)]) == 0
    header, rows = _read_csv(str(out))
    assert header == ["temp_C", "material", "t_crit_s"]
    assert len(rows) == 6 * 4
    got = {(r[0], r[1]): r[2] for r in rows}
    assert got[("50", "blood")] == "344711.889"
    assert got[("100", "skin")] == "2.63699715e-11"
    for temp in ("50", "60", "70", "80", "90", "100"):
        assert got[(temp, "wall")] == got[(temp, "pad")]


def test_damage_map_csv(tmp_path):
    out = tmp_path / "map.csv"
    rc = cli.main(["damage", "--map", "--grid", "3,4", "--out", str(out)])
    assert rc == 0
    header, rows = _read_csv(str(out))
    assert header == ["r_mm", "z_mm", "omega", "t_crit_s"]
    assert len(rows) == 12
    for _, _, omega, t_crit in rows:
        assert float(omega) >= 0.0
        assert t_crit == "inf" or float(t_crit) > 0.0
    # somewhere behind the tip the dose diverges and the time is finite
    assert any(t == "inf" for *_, t in rows)


def test_validate_subset_and_exit_zero(tmp_path):
    out = tmp_path / "val.txt"
    assert cli.main(["validate", "--only", "a3,a9", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("A3") and "PASS" in lines[0]
    assert lines[1].startswith("A9") and "PASS" in lines[1]
    assert lines[2] == "2 of 2 criteria passed"


def test_validate_reports_failure_with_exit_one(tmp_path, monkeypatch):
    def broken(ctx):
        return CriterionResult("A3", "radial branch table", False,
                               "forced failure", "exact", 0.0)
    monkeypatch.setitem(validate.CRITERIA, "a3", broken)
    out = tmp_path / "val.txt"
    assert cli.main(["validate", "--only", "a3", "--out", str(out)]) == 1
    text = out.read_text()
    assert "FAIL" in text and "0 of 1" in text


def test_import_leaves_the_oracle_unloaded():
    # only `evla validate` needs the FD oracle and scipy.sparse
    src = str(Path(evla.__file__).resolve().parents[1])
    code = ("import sys, evla.cli; "
            "print(sorted(m for m in ('evla.fdoracle', 'scipy.sparse') "
            "if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"


def test_config_errors_exit_two(tmp_path, capsys):
    assert cli.main(["fluence", "--config", "/does/not/exist.ini"]) == 2
    assert cli.main(["fluence", "--times", "1,oops"]) == 2
    assert cli.main(["fluence", "--grid", "80"]) == 2
    assert cli.main(["fluence", "--grid", "1,9"]) == 2
    assert cli.main(["validate", "--only", "a99"]) == 2
    # non-finite or out-of-range numeric flags
    assert cli.main(["fluence", "--times", "nan"]) == 2
    assert cli.main(["fluence", "--times", "0,inf"]) == 2
    assert cli.main(["damage", "--map", "--threshold", "nan"]) == 2
    assert cli.main(["damage", "--map", "--threshold", "0"]) == 2
    assert cli.main(["temperature", "--modes", "0"]) == 2
    assert cli.main(["temperature", "--modes", "-3"]) == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 11

    bad = tmp_path / "bad.ini"
    bad.write_text("[protocol]\nnonsense = 3\n")
    assert cli.main(["fluence", "--config", str(bad)]) == 2
    bad.write_text("[protocol]\nwavelength = abc\n")
    assert cli.main(["fluence", "--config", str(bad)]) == 2


@pytest.mark.parametrize("argv", [
    ["fluence", "--times", "nan"],
    ["fluence", "--grid", "1,1"],
    ["temperature", "--times", "nan"],
    ["temperature", "--grid", "1,1"],
    ["damage", "--map", "--grid", "1,1"],
])
def test_bad_grid_or_times_exit_before_the_solve(argv, monkeypatch, capsys):
    # `damage` takes no --times
    def no_solve(ps):
        raise AssertionError("solved before --grid/--times were parsed")
    monkeypatch.setattr(cli, "assemble_and_solve", no_solve)
    assert cli.main(argv) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("ini, argv", [
    ("[optical.blood]\ng = 0.999999\n", ["temperature"]),
    ("[optical.blood]\ng = 0.999999\n", ["damage", "--map"]),
    ("[protocol]\nt_end = 1000\n", ["temperature", "--times", "1000"]),
    ("[protocol]\nu = 70\n", ["damage", "--map"]),
    ("[thermal.skin]\nk = 1e-9\n", ["temperature"]),
], ids=["g-temperature", "g-damage-map", "t_end-1000", "u70-damage-map",
        "skin-k-bessel-overflow"])
def test_diverged_or_overflowing_fields_exit_three(tmp_path, capsys, ini,
                                                   argv):
    # a closed form that diverges (non-finite output) or a Bessel argument
    # past the representable range: one solver-error line, no numpy
    # warning (the suite turns RuntimeWarning into an error) and no
    # traceback
    cfg = tmp_path / "case.ini"
    cfg.write_text(ini)
    out = tmp_path / "out.csv"
    assert cli.main(argv + ["--config", str(cfg), "--out", str(out)]) == 3
    err = capsys.readouterr().err.splitlines()
    assert err[-1].startswith("solver error:")


@pytest.mark.parametrize("command, solution", [
    ("temperature", thermal.TemperatureSolution),
    ("fluence", fluence.FluenceSolution)])
def test_field_commands_evaluate_once(tmp_path, monkeypatch, command,
                                      solution):
    # every output time is evaluated in one call, so the radial table is
    # built once per command
    calls = []
    evaluate = solution.eval

    def counted(self, r, z, t):
        calls.append(t)
        return evaluate(self, r, z, t)

    monkeypatch.setattr(solution, "eval", counted)
    out = tmp_path / "field.csv"
    assert cli.main([command, "--grid", "5,6", "--out", str(out)]) == 0
    assert len(calls) == 1
    # the default times 0, 2.5, 5, 7.5 and 10, each without the points
    # behind the tip (v = 1 mm/s)
    z = np.linspace(-10.0, 10.0, 6)
    t_s = [float(row[2]) for row in _read_csv(str(out))[1]]
    assert t_s == [t for t in (0.0, 2.5, 5.0, 7.5, 10.0)
                   for _ in range(5 * np.count_nonzero(z >= -t - 1e-12))]


def test_env_config_is_picked_up(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "short.ini"
    cfg.write_text("[protocol]\nt_end = 4\n")
    monkeypatch.setenv("EVLA_CONFIG", str(cfg))
    # t = 5 now falls outside the heating window
    assert cli.main(["fluence", "--times", "5", "--grid", "4,5"]) == 2
    assert "error:" in capsys.readouterr().err
    monkeypatch.delenv("EVLA_CONFIG")
    assert cli.main(["fluence", "--times", "5", "--grid", "4,5"]) == 0


def test_preset_changes_the_numbers(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    args = ["fluence", "--times", "0", "--grid", "5,6"]
    assert cli.main(args + ["--out", str(a)]) == 0
    assert cli.main(args + ["--preset", "980-10w", "--out", str(b)]) == 0
    _, rows_a = _read_csv(str(a))
    _, rows_b = _read_csv(str(b))
    phi_a = [float(r[4]) for r in rows_a]
    phi_b = [float(r[4]) for r in rows_b]
    assert phi_a != phi_b
