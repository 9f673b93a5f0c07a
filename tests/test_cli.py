import csv
import json
import os

import numpy as np
import pytest

from hybridbcs import cli, oracle
from hybridbcs.dynamics import BcsState, _split
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
        cli.resolve_config(cfg)
    cfg = base_config(tmp_path)
    cfg["nonsense"] = {}
    with pytest.raises(ConfigurationError, match="nonsense"):
        cli.resolve_config(cfg)


def test_validate_rejects_wrong_types(tmp_path):
    cfg = base_config(tmp_path)
    cfg["band"]["n_modes"] = 64.5
    with pytest.raises(ConfigurationError, match="band.n_modes"):
        cli.resolve_config(cfg)
    cfg = base_config(tmp_path)
    cfg["dissipation"]["alpha"] = True
    with pytest.raises(ConfigurationError, match="dissipation.alpha"):
        cli.resolve_config(cfg)
    cfg = base_config(tmp_path)
    cfg["time"]["spacing"] = "cubic"
    with pytest.raises(ConfigurationError, match="spacing"):
        cli.resolve_config(cfg)
    # Non-finite, or an integer no float can hold (JSON integers are unbounded).
    for section, key, value in (("integrator", "rtol", float("inf")),
                                ("interaction", "u_over_w", 10 ** 400)):
        cfg = base_config(tmp_path)
        cfg.setdefault(section, {})[key] = value
        with pytest.raises(ConfigurationError, match=f"{section}.{key} must be finite"):
            cli.resolve_config(cfg)
        assert cli.main(["run", "--config", write_config(tmp_path, cfg)]) == cli.EXIT_CONFIG
    # The last sample time ends the run; there is no step cap to set.
    cfg = base_config(tmp_path)
    cfg["integrator"] = {"max_step_w": 1.0}
    with pytest.raises(ConfigurationError, match="unknown config key: integrator.max_step_w"):
        cli.resolve_config(cfg)
    assert cli.main(["run", "--config", write_config(tmp_path, cfg)]) == cli.EXIT_CONFIG


def test_validate_rejects_bad_track_energies(tmp_path):
    # Each entry must be a finite number, before any run writes a file.
    for bad in (["x"], [float("nan")], [True], [0.1, float("inf")], [0.1, -10 ** 400],
                [[0.1]]):
        cfg = base_config(tmp_path)
        cfg["output"]["track_energies"] = bad
        with pytest.raises(ConfigurationError, match="output.track_energies"):
            cli.resolve_config(cfg)
        assert cli.main(["run", "--config", write_config(tmp_path, cfg)]) == cli.EXIT_CONFIG
    assert not (tmp_path / "out.csv").exists()
    assert not (tmp_path / "out.json").exists()


def test_validate_rejects_bad_time_axis(tmp_path):
    # A zero horizon used to reach np.geomspace (ValueError, exit 1); too few
    # samples were caught only once the grid was built.
    for key, value, message in (("t_max_w", 0.0, "time.t_max_w must be positive"),
                                ("t_max_w", -5.0, "time.t_max_w must be positive"),
                                ("samples", 1, "time.samples must be at least 2")):
        cfg = base_config(tmp_path, **{key: value})
        with pytest.raises(ConfigurationError, match=message):
            cli.resolve_config(cfg)
        assert cli.main(["run", "--config", write_config(tmp_path, cfg)]) == cli.EXIT_CONFIG
    assert not (tmp_path / "out.csv").exists()
    assert not (tmp_path / "out.json").exists()


def test_validate_rejects_integers_numpy_cannot_size(tmp_path):
    # numpy raises ValueError ("Maximum allowed size exceeded", "array is too
    # big") for an array whose items or bytes exceed the largest intp, which
    # used to end the run with exit 1. The stepper's stage buffer holds 384
    # bytes per mode, so the bound is intp.max // 384.
    bound = int(np.iinfo(np.intp).max) // 384
    too_big = [(section, key, value)
               for section, key in (("band", "n_modes"), ("time", "samples"))
               for value in (2 ** 60, bound + 1, int(np.iinfo(np.intp).max) + 1)]
    for section, key, value in [("band", "n_modes", 10 ** 400), ("time", "samples", 10 ** 20),
                                *too_big]:
        cfg = base_config(tmp_path)
        cfg[section][key] = value
        with pytest.raises(ConfigurationError, match=f"{section}.{key} must be at most"):
            cli.resolve_config(cfg)
        assert cli.main(["run", "--config", write_config(tmp_path, cfg)]) == cli.EXIT_CONFIG
    assert not (tmp_path / "out.csv").exists()
    assert not (tmp_path / "out.json").exists()
    cfg = base_config(tmp_path)
    cfg["band"]["n_modes"] = cfg["time"]["samples"] = bound
    cli.resolve_config(cfg)


def test_validate_rejects_missing_sections(tmp_path):
    cfg = base_config(tmp_path)
    del cfg["interaction"]
    with pytest.raises(ConfigurationError, match="interaction"):
        cli.resolve_config(cfg)
    cfg = base_config(tmp_path)
    del cfg["time"]["samples"]
    with pytest.raises(ConfigurationError, match="time.samples"):
        cli.resolve_config(cfg)


def test_resolve_fills_defaults(tmp_path):
    cfg = cli.resolve_config(base_config(tmp_path))
    # One alpha weights losses and pumps; resolving adds no dissipation key.
    assert cfg["dissipation"] == base_config(tmp_path)["dissipation"]
    assert cfg["integrator"]["rtol"] == 1e-9
    assert cfg["integrator"]["atol"] == 1e-12
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
    stats = sidecar["integrator"]
    assert stats["steps"] > 0
    assert 0.0 < stats["dt_min"] <= stats["dt_max"]
    # Some of the 30 log samples fall inside steps and are interpolated.
    assert 0 < stats["dense_steps"] < stats["steps"]


def test_run_reproduces_from_sidecar(tmp_path):
    config_path = write_config(tmp_path, base_config(tmp_path))
    assert cli.main(["run", "--config", config_path]) == 0
    first = (tmp_path / "out.csv").read_bytes()

    with open(tmp_path / "out.json") as handle:
        sidecar = json.load(handle)
    replay = sidecar["config"]
    replay["output"]["path"] = str(tmp_path / "replay.csv")
    # The sidecar holds the resolved config, integrator defaults included. The
    # replay's own sidecar is replay.json, so its config needs another name.
    replay_path = write_config(tmp_path, replay, "replay_config.json")
    assert cli.main(["run", "--config", replay_path]) == 0
    assert (tmp_path / "replay.csv").read_bytes() == first


def test_run_linear_spacing_sample_times(tmp_path):
    # "linear" samples linspace(t_max / samples, t_max, samples).
    cfg = base_config(tmp_path, t_max_w=5.0, samples=5, spacing="linear")
    assert cli.main(["run", "--config", write_config(tmp_path, cfg)]) == 0
    header, data = read_csv(tmp_path / "out.csv")
    assert data[:, header.index("t_w")].tolist() == [1.0, 2.0, 3.0, 4.0, 5.0]


def test_run_bad_config_exit_code(tmp_path, capsys):
    cfg = base_config(tmp_path)
    cfg["interaction"]["u_over_w"] = 0.01  # below the pairing threshold
    config_path = write_config(tmp_path, cfg)
    assert cli.main(["run", "--config", config_path]) == cli.EXIT_CONFIG
    assert "configuration error" in capsys.readouterr().err
    assert cli.main(["run", "--config", str(tmp_path / "missing.json")]) \
        == cli.EXIT_CONFIG


def test_run_rejects_tolerances_below_the_rtol_floor(tmp_path, capsys):
    # Both used to start the run and exit 3: a NaN first step at 1e-300, a
    # step size underflow at 1e-30.
    for tol in (1e-300, 1e-30):
        cfg = base_config(tmp_path)
        cfg["integrator"] = {"rtol": tol, "atol": tol}
        assert cli.main(["run", "--config", write_config(tmp_path, cfg)]) == cli.EXIT_CONFIG
        assert "rtol must exceed" in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()
    assert not (tmp_path / "out.json").exists()


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

    # A header alone, or rows shorter than the header, used to raise IndexError.
    header_only = tmp_path / "header.csv"
    header_only.write_text("t_w,n\n")
    short_lines = tmp_path / "short.csv"
    short_lines.write_text("t_w,n\n1.0\n2.0\n")
    for bad in (header_only, short_lines):
        assert cli.main(["fit", "--input", str(bad), "--column", "n",
                         "--window", "1,100"]) == cli.EXIT_CONFIG
        assert "is not a run CSV" in capsys.readouterr().err


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


def test_fit_rejects_non_positive_times(tmp_path, capsys):
    # A t_w = 0 row in the window used to end in a LinAlgError traceback.
    path = tmp_path / "series.csv"
    t = np.r_[0.0, np.geomspace(1.0, 20.0, 30)]
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["t_w", "n"])
        for ti in t:
            writer.writerow([f"{ti:.17e}", f"{2.0 / (1.0 + ti) ** 2:.17e}"])
    assert cli.main(["fit", "--input", str(path), "--column", "n",
                     "--window", "0,20"]) == cli.EXIT_CONFIG
    assert "strictly positive" in capsys.readouterr().err
    assert cli.main(["fit", "--input", str(path), "--column", "n",
                     "--window", "1,20"]) == 0


def test_fit_rejects_a_window_of_equal_times(tmp_path, capsys):
    # Twelve rows at one time used to print a RankWarning and exit 0.
    path = tmp_path / "series.csv"
    path.write_text("t_w,n\n" + "2.0,0.5\n" * 12)
    assert cli.main(["fit", "--input", str(path), "--column", "n",
                     "--window", "1,3"]) == cli.EXIT_CONFIG
    assert "span no interval" in capsys.readouterr().err


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


def test_scan_rejects_non_finite_values(tmp_path, capsys):
    # A non-finite rate is a configuration error: exit 2 before any run.
    config_path = write_config(tmp_path, base_config(tmp_path, samples=15))
    for axis, values in (("pump", "nan"), ("gamma", "inf"), ("gamma", "0.08,-inf")):
        assert cli.main(["scan", "--config", config_path, "--axis", axis,
                         "--values", values]) == cli.EXIT_CONFIG
        assert "must be finite" in capsys.readouterr().err
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


def test_pooled_scan_reports_a_failed_run(tmp_path):
    # A run that fails in a pool worker becomes its own failed row. A rate of
    # 1e6 U is stiff enough to spend the step budget of 1000 + 100 W t_end.
    cfg = base_config(tmp_path, t_max_w=5.0, samples=15)
    cfg["band"]["n_modes"] = 16
    config_path = write_config(tmp_path, cfg)
    assert cli.main(["scan", "--config", config_path, "--axis", "gamma",
                     "--values", "1e6,0.08", "--workers", "2"]) == cli.EXIT_INTEGRATION
    with open(tmp_path / "out_gamma_summary.csv", newline="") as handle:
        rows = list(csv.reader(handle))
    assert [row[:2] for row in rows[1:]] == [
        ["1e+06", str(tmp_path / "out_gamma_1e+06.csv")],
        ["0.08", str(tmp_path / "out_gamma_0.08.csv")]]
    assert rows[1][2].startswith("failed: step budget 1500 exhausted")
    assert rows[1][3:] == [""] * len(cli._SUMMARY)
    assert rows[2][2] == "ok"


@pytest.mark.parametrize("axis, values, message", [
    ("alpha", "0.5,1.5", "alpha must lie in [0, 1]"),
    ("gamma", "0.08,-0.1", "must be finite and non-negative"),
])
def test_scan_exits_2_before_any_run_on_a_bad_value(tmp_path, capsys, axis, values, message):
    # Every value's run is checked before the first one starts, as `run` checks
    # its one run; a bad value used to become a failed row, after the good runs.
    config_path = write_config(tmp_path, base_config(tmp_path, samples=15))
    assert cli.main(["scan", "--config", config_path, "--axis", axis,
                     "--values", values, "--workers", "2"]) == cli.EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == ["config.json"]


@pytest.mark.parametrize("section, key, value, message", [
    ("integrator", "rtol", 1e-30, "rtol must exceed 2.2e-15"),
    ("time", "t_max_w", 30.0, "revival guard 20.1"),
])
def test_scan_exits_2_before_any_run_on_an_error_no_value_can_fix(
        tmp_path, capsys, section, key, value, message):
    # The tolerances and the revival guard hold for every scanned value, so the
    # scan stops before any run, as `run` does; it used to write a summary of
    # failed rows and exit 3.
    cfg = base_config(tmp_path, samples=15)
    cfg["band"]["n_modes"] = 16
    cfg.setdefault(section, {})[key] = value
    config_path = write_config(tmp_path, cfg)
    assert cli.main(["scan", "--config", config_path, "--axis", "alpha",
                     "--values", "0.5,1.0"]) == cli.EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == ["config.json"]


def test_missing_output_directory_exit_code(tmp_path, capsys):
    # Checked before any run: the runs used to finish, then fail to write.
    cfg = base_config(tmp_path, samples=15)
    cfg["output"]["path"] = str(tmp_path / "runs" / "out.csv")
    config_path = write_config(tmp_path, cfg)
    for argv in (["run"], ["scan", "--axis", "gamma", "--values", "0.08,0.16",
                           "--workers", "2"]):
        assert cli.main([*argv, "--config", config_path]) == cli.EXIT_CONFIG
        assert "does not exist" in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == ["config.json"]


@pytest.mark.parametrize("argv, outputs", [
    (["run"], ["out.csv", "out.json"]),
    (["scan", "--axis", "gamma", "--values", "0.08"],
     ["out_gamma_0.08.csv", "out_gamma_0.08.json", "out_gamma_summary.csv"]),
], ids=["run", "scan"])
def test_output_path_naming_a_directory_exit_code(tmp_path, capsys, argv, outputs):
    # Checked before any run: the runs used to finish, then fail to write.
    config_path = write_config(tmp_path, base_config(tmp_path, samples=15))
    for blocked in outputs:
        (tmp_path / blocked).mkdir()
        assert cli.main([*argv, "--config", config_path]) == cli.EXIT_CONFIG
        assert "is a directory" in capsys.readouterr().err
        (tmp_path / blocked).rmdir()
    assert sorted(os.listdir(tmp_path)) == ["config.json"]


@pytest.mark.parametrize("argv, config_name, output, message", [
    (["run"], "config.json", "out.json", "would both write"),
    (["run"], "replay.json", "replay.csv", "would overwrite the config"),
    (["scan", "--axis", "gamma", "--values", "0.08,0.16"], "config.json", "out.json",
     "would both write"),
    (["scan", "--axis", "gamma", "--values", "0.08"], "x_gamma_0.08.json", "x.csv",
     "would overwrite the config"),
], ids=["run-csv-is-sidecar", "run-sidecar-is-config", "scan-csv-is-sidecar",
        "scan-sidecar-is-config"])
def test_output_overwriting_an_output_or_the_config_exit_code(
        tmp_path, capsys, argv, config_name, output, message):
    # Checked before any run: otherwise a run's sidecar replaces its own CSV, or
    # the config it was started from, and the command still exits 0.
    cfg = base_config(tmp_path, samples=15)
    cfg["output"]["path"] = str(tmp_path / output)
    config_path = write_config(tmp_path, cfg, config_name)
    before = (tmp_path / config_name).read_bytes()
    assert cli.main([*argv, "--config", config_path]) == cli.EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == [config_name]
    assert (tmp_path / config_name).read_bytes() == before


@pytest.mark.parametrize("path", ["", "runs/"])
def test_output_path_naming_no_file_exit_code(tmp_path, capsys, path):
    # An empty path used to run the whole integration, then fail to open ''
    # with a traceback and exit 1.
    cfg = base_config(tmp_path, samples=15)
    cfg["output"]["path"] = path
    config_path = write_config(tmp_path, cfg)
    for argv in (["run"], ["scan", "--axis", "gamma", "--values", "0.08"]):
        assert cli.main([*argv, "--config", config_path]) == cli.EXIT_CONFIG
        assert "output.path must name a file" in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == ["config.json"]


def test_a_config_too_large_to_allocate_exit_code(tmp_path, capsys, monkeypatch):
    # numpy raises MemoryError for an array it cannot allocate; it used to end
    # in a traceback and exit 1. The stand-in raises it without allocating.
    def too_large(width, n_modes):
        raise MemoryError("Unable to allocate 7.28 TiB for an array")

    monkeypatch.setattr(cli, "build_flat_band", too_large)
    config_path = write_config(tmp_path, base_config(tmp_path, samples=15))
    for argv in (["run"], ["scan", "--axis", "gamma", "--values", "0.08,0.16"]):
        assert cli.main([*argv, "--config", config_path]) == cli.EXIT_CONFIG
        assert "Unable to allocate 7.28 TiB" in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == ["config.json"]


def test_scan_pool_has_no_more_workers_than_runs(tmp_path, monkeypatch):
    # The pool starts every worker at its first task, so a larger pool than
    # there are runs forks idle processes; one run needs no pool at all. The
    # stand-in maps in this process and refuses more than two workers.
    sizes = []

    class Pool:
        def __init__(self, max_workers):
            assert max_workers <= 2, max_workers
            sizes.append(max_workers)
            self.map = map

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

    monkeypatch.setattr(cli, "ProcessPoolExecutor", Pool)
    config_path = write_config(tmp_path, base_config(tmp_path, samples=15))
    for values in ("0.08", "0.08,0.16"):
        assert cli.main(["scan", "--config", config_path, "--axis", "gamma",
                         "--values", values, "--workers", "6"]) == 0
    assert sizes == [2]


def test_scan_propagates_programming_errors(tmp_path, monkeypatch):
    # Only integration failures become "failed" rows.
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


def read_summary(path):
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


def test_scan_n_modes_serial_and_pooled_are_identical(tmp_path):
    cfg = base_config(tmp_path, samples=15)
    summaries = []
    for name, workers in (("serial", "1"), ("pooled", "2")):
        cfg["output"]["path"] = str(tmp_path / f"{name}.csv")
        config_path = write_config(tmp_path, cfg, f"{name}.json")
        assert cli.main(["scan", "--config", config_path, "--axis", "n_modes",
                         "--values", "16,32.0", "--workers", workers]) == 0
        summaries.append(read_summary(tmp_path / f"{name}_n_modes_summary.csv"))
        sidecar = json.loads((tmp_path / f"{name}_n_modes_32.json").read_text())
        assert sidecar["config"]["band"]["n_modes"] == 32
    serial, pooled = ([row[:1] + row[2:] for row in rows] for rows in summaries)
    assert serial == pooled
    assert [row[:2] for row in serial] == [["n_modes", "status"], ["16", "ok"], ["32", "ok"]]
    assert serial[1][2] != serial[2][2]  # two grids, two final densities


@pytest.mark.parametrize("values, message", [
    ("16,2048.5", "band.n_modes must be int"),
    ("16,nan", "band.n_modes must be int"),
    ("16,inf", "band.n_modes must be int"),
    ("16,15", "n_modes must be an even integer"),
    ("16,1e30", "band.n_modes must be at most"),
])
def test_scan_exits_2_before_any_run_on_a_bad_n_modes(tmp_path, capsys, values, message):
    # Each value's config goes through the schema pass: without it, 2048.0 would
    # reach np.full as a float (TypeError) and 1e30 would overflow numpy's array
    # size (ValueError), both tracebacks with exit 1.
    config_path = write_config(tmp_path, base_config(tmp_path, samples=15))
    assert cli.main(["scan", "--config", config_path, "--axis", "n_modes",
                     "--values", values]) == cli.EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == ["config.json"]


def test_scan_names_n_modes_runs_by_their_exact_integer(tmp_path, monkeypatch):
    # %g prints 1048576 and 1048578 alike, so the output-collision check would
    # refuse the scan. Nothing is built or run here: only the names are checked.
    monkeypatch.setattr(cli, "assemble", lambda cfg: (None,) * 4)
    monkeypatch.setattr(cli, "check_run", lambda *args, **kwargs: None)
    monkeypatch.setattr(cli, "_scan_row", lambda cfg: ["ok"] + [""] * len(cli._SUMMARY))
    config_path = write_config(tmp_path, base_config(tmp_path))
    assert cli.main(["scan", "--config", config_path, "--axis", "n_modes",
                     "--values", "1048576,1048578"]) == 0
    rows = read_summary(tmp_path / "out_n_modes_summary.csv")
    assert [row[:2] for row in rows[1:]] == [
        ["1048576", str(tmp_path / "out_n_modes_1048576.csv")],
        ["1048578", str(tmp_path / "out_n_modes_1048578.csv")]]


def test_scan_rtol(tmp_path):
    config_path = write_config(tmp_path, base_config(tmp_path, samples=15))
    assert cli.main(["scan", "--config", config_path, "--axis", "rtol",
                     "--values", "1e-7,1e-10"]) == 0
    rows = read_summary(tmp_path / "out_rtol_summary.csv")
    assert [row[:3] for row in rows[1:]] == [
        ["1e-07", str(tmp_path / "out_rtol_1e-07.csv"), "ok"],
        ["1e-10", str(tmp_path / "out_rtol_1e-10.csv"), "ok"]]
    loose, tight = (json.loads((tmp_path / f"out_rtol_{v}.json").read_text())
                    for v in ("1e-07", "1e-10"))
    assert (loose["integrator"]["rtol"], tight["integrator"]["rtol"]) == (1e-7, 1e-10)
    assert loose["integrator"]["steps"] < tight["integrator"]["steps"]
    n_final = [float(row[3]) for row in rows[1:]]
    assert abs(n_final[0] - n_final[1]) < 1e-6 * n_final[1]


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


def test_oracle_sites_reach_every_propagator_report(capsys, monkeypatch):
    built = []
    cluster = oracle.MomentumCluster
    monkeypatch.setattr(oracle, "MomentumCluster",
                        lambda n_sites: built.append(n_sites) or cluster(n_sites))
    assert cli.main(["oracle", "--seeds", "2", "--sites", "3"]) == 0
    assert capsys.readouterr().out.count("[PASS]") == 4
    assert built == [3, 3, 3]  # one cluster per propagator suite


def test_oracle_corrupt_exit_code(capsys, monkeypatch):
    # A 1e-3 error in dDelta_k must fail the oracle with its exit code.
    exact = oracle.rhs_total

    def perturbed(state, params):
        dn_k, dd_k = _split(exact(state, params))
        return BcsState(state.t, dn_k, dd_k + 1e-3).y

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


def test_run_is_bit_identical_at_any_blas_thread_count(tmp_path, run_with_blas_threads):
    # OpenBLAS splits a long dot product across threads, which reorders its
    # sum; every reduction over modes must give the same bits at any count.
    cfg = base_config(tmp_path, t_max_w=50.0, samples=50)
    cfg["band"]["n_modes"] = 16384
    cfg["dissipation"]["alpha"] = 0.0
    config_path = write_config(tmp_path, cfg)
    outputs = []
    for threads in (1, 2):
        run_with_blas_threads(["-m", "hybridbcs.cli", "run", "--config", config_path], threads)
        outputs.append((tmp_path / "out.csv").read_bytes())
    assert outputs[0] == outputs[1]
