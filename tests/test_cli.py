import csv
import json
import os

import numpy as np
import pytest

from hybridbcs import cli, oracle
from hybridbcs.dynamics import StateDerivative
from hybridbcs.errors import ConfigurationError, IntegrationError
from hybridbcs.observables import collapse_index, detect_plateau


def base_config(tmp_path, **time_overrides):
    time_section = {"t_max_w": 20.0, "samples": 30, "spacing": "log"}
    time_section.update(time_overrides)
    return {
        "band": {"width": 1.0, "n_modes": 64},
        "interaction": {"u_over_w": 1.0},
        "dissipation": {"gamma_over_u": 0.08, "p_over_u": 0.0, "alpha": 1.0},
        "time": time_section,
        "output": {"path": str(tmp_path / "out.csv")},
    }


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def read_csv(path):
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        rows = [[float(v) for v in row] for row in reader]
    return header, np.array(rows)


def test_validate_rejects_unknown_keys(tmp_path):
    cfg = base_config(tmp_path)
    cfg["band"]["wdith"] = 1.0
    with pytest.raises(ConfigurationError, match="band.wdith"):
        cli.validate_config(cfg)
    cfg = base_config(tmp_path)
    cfg["nonsense"] = {}
    with pytest.raises(ConfigurationError, match="nonsense"):
        cli.validate_config(cfg)


def test_validate_rejects_wrong_types(tmp_path):
    cfg = base_config(tmp_path)
    cfg["band"]["n_modes"] = 64.5
    with pytest.raises(ConfigurationError, match="band.n_modes"):
        cli.validate_config(cfg)
    cfg = base_config(tmp_path)
    cfg["dissipation"]["alpha"] = True
    with pytest.raises(ConfigurationError, match="dissipation.alpha"):
        cli.validate_config(cfg)
    cfg = base_config(tmp_path)
    cfg["time"]["spacing"] = "cubic"
    with pytest.raises(ConfigurationError, match="spacing"):
        cli.validate_config(cfg)
    cfg = base_config(tmp_path)
    cfg["integrator"] = {"max_step_w": float("inf")}
    with pytest.raises(ConfigurationError, match="integrator.max_step_w"):
        cli.validate_config(cfg)


def test_validate_rejects_missing_sections(tmp_path):
    cfg = base_config(tmp_path)
    del cfg["interaction"]
    with pytest.raises(ConfigurationError, match="interaction"):
        cli.validate_config(cfg)
    cfg = base_config(tmp_path)
    del cfg["time"]["samples"]
    with pytest.raises(ConfigurationError, match="time.samples"):
        cli.validate_config(cfg)


def test_resolve_fills_defaults(tmp_path):
    cfg = cli.resolve_config(base_config(tmp_path))
    # One alpha weights losses and pumps; resolving adds no dissipation key.
    assert cfg["dissipation"] == base_config(tmp_path)["dissipation"]
    assert cfg["integrator"]["rtol"] == 1e-9
    assert cfg["integrator"]["atol"] == 1e-12
    assert cfg["integrator"]["max_step_w"] == cfg["time"]["t_max_w"]
    assert cfg["output"]["track_energies"] == []


def test_run_writes_csv_and_sidecar(tmp_path):
    cfg = base_config(tmp_path)
    cfg["output"]["track_energies"] = [-0.1, 0.1]
    config_path = write_config(tmp_path, cfg)
    assert cli.main(["run", "--config", config_path]) == 0

    header, data = read_csv(tmp_path / "out.csv")
    assert header[:6] == ["t_w", "n", "re_delta", "im_delta", "abs_delta",
                          "zeta_mean"]
    # Two tracked modes, four per-mode columns each.
    assert len(header) == 6 + 8
    assert data.shape == (30, 14)
    assert np.all(np.diff(data[:, 0]) > 0)
    assert np.allclose(data[:, 4], np.abs(data[:, 2] + 1j * data[:, 3]))

    def reject_constant(name):
        raise ValueError(f"non-standard JSON constant {name}")

    sidecar = json.loads((tmp_path / "out.json").read_text(),
                         parse_constant=reject_constant)
    assert sidecar["config"]["dissipation"] == cfg["dissipation"]
    assert len(sidecar["grid_checksum"]) == 64
    assert len(sidecar["tracked_modes"]) == 2
    # Requested energies are snapped to grid modes and echoed back.
    for requested, snapped in zip([-0.1, 0.1], sidecar["tracked_energies"]):
        assert abs(requested - snapped) < 1.0 / 64
    assert sidecar["integrator"]["steps"] > 0
    assert 0.0 < sidecar["integrator"]["dt_min"] <= sidecar["integrator"]["dt_max"]


def test_run_reproduces_from_sidecar(tmp_path):
    config_path = write_config(tmp_path, base_config(tmp_path))
    assert cli.main(["run", "--config", config_path]) == 0
    first = (tmp_path / "out.csv").read_bytes()

    with open(tmp_path / "out.json") as handle:
        sidecar = json.load(handle)
    replay = sidecar["config"]
    replay["output"]["path"] = str(tmp_path / "replay.csv")
    # The sidecar holds the resolved config, max_step_w included.
    replay_path = write_config(tmp_path, replay, "replay.json")
    assert cli.main(["run", "--config", replay_path]) == 0
    assert (tmp_path / "replay.csv").read_bytes() == first


def test_run_bad_config_exit_code(tmp_path, capsys):
    cfg = base_config(tmp_path)
    cfg["interaction"]["u_over_w"] = 0.01  # below the pairing threshold
    config_path = write_config(tmp_path, cfg)
    assert cli.main(["run", "--config", config_path]) == cli.EXIT_CONFIG
    assert "configuration error" in capsys.readouterr().err
    assert cli.main(["run", "--config", str(tmp_path / "missing.json")]) \
        == cli.EXIT_CONFIG


def test_run_revival_guard_exit_code(tmp_path, capsys):
    cfg = base_config(tmp_path, t_max_w=1000.0)  # guard at 64 modes ~ 80
    config_path = write_config(tmp_path, cfg)
    assert cli.main(["run", "--config", config_path]) == cli.EXIT_CONFIG


def test_fit_command(tmp_path, capsys):
    path = tmp_path / "series.csv"
    t = np.geomspace(1.0, 100.0, 60)
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["t_w", "n"])
        for ti in t:
            writer.writerow([f"{ti:.17e}", f"{2.0 * ti ** -2.0:.17e}"])
    assert cli.main(["fit", "--input", str(path), "--column", "n",
                     "--window", "1,100"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert abs(report["exponent"] + 2.0) < 1e-10
    assert report["column"] == "n"

    assert cli.main(["fit", "--input", str(path), "--column", "zeta_mean",
                     "--window", "1,100"]) == cli.EXIT_CONFIG
    assert cli.main(["fit", "--input", str(path), "--column", "n",
                     "--window", "banana"]) == cli.EXIT_CONFIG


def test_fit_rejects_non_finite_data(tmp_path, capsys):
    # One nan in the window used to print "exponent": NaN (not JSON) and exit 0.
    path = tmp_path / "series.csv"
    t = np.geomspace(1.0, 100.0, 60)
    n = 2.0 * t ** -2.0
    n[30] = np.nan
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["t_w", "n"])
        for ti, ni in zip(t, n):
            writer.writerow([f"{ti:.17e}", f"{ni:.17e}"])
    assert cli.main(["fit", "--input", str(path), "--column", "n",
                     "--window", "1,100"]) == cli.EXIT_CONFIG
    assert "finite" in capsys.readouterr().err
    # Outside the window the nan is ignored.
    assert cli.main(["fit", "--input", str(path), "--column", "n",
                     "--window", "20,100"]) == 0


def test_scan_summary(tmp_path):
    cfg = base_config(tmp_path, samples=20)
    config_path = write_config(tmp_path, cfg)
    assert cli.main(["scan", "--config", config_path, "--axis", "alpha",
                     "--values", "1.0,0.0"]) == 0
    summary = tmp_path / "out_alpha_summary.csv"
    with open(summary, newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0][:3] == ["alpha", "path", "status"]
    assert len(rows) == 3
    assert all(row[2] == "ok" for row in rows[1:])
    assert os.path.exists(tmp_path / "out_alpha_1.csv")
    assert os.path.exists(tmp_path / "out_alpha_0.csv")
    assert os.path.exists(tmp_path / "out_alpha_0.json")


def test_scan_plateau_starts_after_collapse(tmp_path):
    # A no-click loss run first sits frozen near n = 1; the summary's plateau
    # must come from after the order-parameter collapse.
    cfg = base_config(tmp_path, t_max_w=60.0, samples=40)
    cfg["dissipation"]["alpha"] = 0.0
    config_path = write_config(tmp_path, cfg)
    assert cli.main(["scan", "--config", config_path, "--axis", "gamma",
                     "--values", "0.32"]) == 0
    with open(tmp_path / "out_gamma_summary.csv", newline="") as handle:
        plateau_n = float(list(csv.reader(handle))[1][7])
    header, data = read_csv(tmp_path / "out_gamma_0.32.csv")
    t, n = data[:, header.index("t_w")], data[:, header.index("n")]
    start = collapse_index(data[:, header.index("abs_delta")])
    assert 0 < start < len(t) - 1
    assert detect_plateau(t, n).value > 0.99  # the frozen transient
    expected = detect_plateau(t[start:], n[start:])
    if expected.found:
        assert plateau_n == expected.value
    else:
        assert np.isnan(plateau_n)


def test_scan_empty_values_exit_code(tmp_path):
    config_path = write_config(tmp_path, base_config(tmp_path))
    assert cli.main(["scan", "--config", config_path, "--axis", "alpha",
                     "--values", ","]) == cli.EXIT_CONFIG
    assert cli.main(["scan", "--config", config_path, "--axis", "alpha",
                     "--values", "abc"]) == cli.EXIT_CONFIG


def test_scan_rejects_colliding_output_paths(tmp_path, capsys):
    # Values that print alike under :g would write one CSV twice.
    config_path = write_config(tmp_path, base_config(tmp_path, samples=15))
    for values in ("0.1234567,0.1234568", "0.08,0.16,0.08"):
        assert cli.main(["scan", "--config", config_path, "--axis", "gamma",
                         "--values", values, "--workers", "2"]) == cli.EXIT_CONFIG
        assert "would both write" in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == ["config.json"]


def test_scan_tolerates_single_failed_run(tmp_path, monkeypatch):
    calls = {"count": 0}
    real = cli._scan_one

    def flaky(job):
        calls["count"] += 1
        if calls["count"] == 1:
            raise IntegrationError("synthetic failure")
        return real(job)

    monkeypatch.setattr(cli, "_scan_one", flaky)
    cfg = base_config(tmp_path, samples=15)
    config_path = write_config(tmp_path, cfg)
    code = cli.main(["scan", "--config", config_path, "--axis", "gamma",
                     "--values", "0.08,0.16"])
    assert code == cli.EXIT_INTEGRATION
    with open(tmp_path / "out_gamma_summary.csv", newline="") as handle:
        rows = list(csv.reader(handle))
    statuses = [row[2] for row in rows[1:]]
    assert statuses[0].startswith("failed")
    assert statuses[1] == "ok"


def test_scan_propagates_programming_errors(tmp_path, monkeypatch):
    # Only integration and configuration failures become "failed" rows.
    def broken(job):
        raise TypeError("synthetic bug")

    monkeypatch.setattr(cli, "_scan_one", broken)
    config_path = write_config(tmp_path, base_config(tmp_path, samples=15))
    with pytest.raises(TypeError, match="synthetic bug"):
        cli.main(["scan", "--config", config_path, "--axis", "gamma",
                  "--values", "0.08,0.16", "--workers", "1"])


def test_scan_workers_give_identical_output(tmp_path):
    cfg = base_config(tmp_path, samples=15)
    cfg["output"]["path"] = str(tmp_path / "serial.csv")
    config_path = write_config(tmp_path, cfg, "serial.json")
    assert cli.main(["scan", "--config", config_path, "--axis", "alpha",
                     "--values", "1.0,0.5"]) == 0

    cfg["output"]["path"] = str(tmp_path / "pooled.csv")
    config_path = write_config(tmp_path, cfg, "pooled.json")
    assert cli.main(["scan", "--config", config_path, "--axis", "alpha",
                     "--values", "1.0,0.5", "--workers", "2"]) == 0
    for value in ("1", "0.5"):
        serial = (tmp_path / f"serial_alpha_{value}.csv").read_bytes()
        pooled = (tmp_path / f"pooled_alpha_{value}.csv").read_bytes()
        assert serial == pooled


def test_scan_workers_below_one_exit_code(tmp_path):
    config_path = write_config(tmp_path, base_config(tmp_path, samples=15))
    for workers in ("0", "-3"):
        assert cli.main(["scan", "--config", config_path, "--axis", "gamma",
                         "--values", "0.08", "--workers", workers]) == cli.EXIT_CONFIG
    assert not (tmp_path / "out_gamma_summary.csv").exists()


def test_oracle_command(capsys):
    assert cli.main(["oracle", "--seeds", "2"]) == 0
    out = capsys.readouterr().out
    assert out.count("[PASS]") == 4
    assert "all checks passed" in out


def test_oracle_corrupt_exit_code(capsys, monkeypatch):
    # A 1e-3 error in dDelta_k must fail the oracle with its exit code.
    exact = oracle.rhs_total

    def perturbed(state, params):
        deriv = exact(state, params)
        return StateDerivative(deriv.dn_k, deriv.dd_k + 1e-3)

    monkeypatch.setattr(oracle, "rhs_total", perturbed)
    assert cli.main(["oracle", "--seeds", "2"]) == cli.EXIT_ORACLE
    assert "[FAIL]" in capsys.readouterr().out


def test_oracle_seeds_below_one_exit_code(capsys):
    # With no seed the equation-of-motion check would pass without checking.
    for seeds in ("0", "-2"):
        assert cli.main(["oracle", "--seeds", seeds]) == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert "[PASS]" not in captured.out
    assert "at least one seed" in captured.err


def test_oracle_bad_sites(capsys):
    assert cli.main(["oracle", "--sites", "5"]) == cli.EXIT_CONFIG
