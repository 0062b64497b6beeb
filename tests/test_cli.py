"""Command-line interface tests: parsing, precedence, emission, errors."""

import json
import math

import numpy as np
import pytest

from bogodense import HBAR, ConfigError
from bogodense.cli import _DEFAULTS, main, parse_config

FAST = ["--nbar", "100", "--n0", "100", "--grid-points", "800"]


def _read_csv(path):
    lines = path.read_text().rstrip("\n").split("\n")
    header = lines[0].split(",")
    data = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])
    return header, data


# ------------------------------------------------------------------- parsing


def test_defaults_applied():
    cfg = parse_config(["ground"])
    p = cfg.physical
    assert p.mass == _DEFAULTS["mass-kg"]
    assert p.scattering_length == _DEFAULTS["scattering-length-m"]
    assert p.trap_frequency == _DEFAULTS["trap-frequency-hz"]
    assert p.nbar == _DEFAULTS["nbar"]
    assert cfg.n_points == 4000
    assert cfg.format == "csv"
    assert not cfg.si


def test_config_file_precedence(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# reference trap\n"
        "nbar = 250  # overridden by the flag below\n"
        "trap-frequency-hz = 500\n"
        "\n"
    )
    cfg = parse_config(["ground", "--config", str(path), "--nbar", "300"])
    assert cfg.physical.nbar == 300.0  # flag beats file
    assert cfg.physical.trap_frequency == 500.0  # file beats default
    assert cfg.physical.mass == _DEFAULTS["mass-kg"]  # default survives
    # The file can also be supplied programmatically.
    cfg2 = parse_config(["ground"], file=str(path))
    assert cfg2.physical.nbar == 250.0


def test_config_file_unknown_key(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("nbar = 100\nfoo = 1\n")
    with pytest.raises(ConfigError, match=rf"{path}:2: unknown key 'foo'"):
        parse_config(["ground", "--config", str(path)])


def test_config_file_malformed_number(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("nbar = lots\n")
    with pytest.raises(ConfigError, match=r"malformed number for key 'nbar'"):
        parse_config(["ground", "--config", str(path)])


def test_config_file_missing_separator(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("nbar 100\n")
    with pytest.raises(ConfigError, match=r"expected `key = value`"):
        parse_config(["ground", "--config", str(path)])


def test_config_file_unreadable():
    with pytest.raises(ConfigError, match=r"cannot read config file"):
        parse_config(["ground", "--config", "/nonexistent/run.cfg"])


# ------------------------------------------------------------------ exit codes


def test_exit_codes(tmp_path, capsys):
    assert main(["ground", *FAST, "--output", str(tmp_path / "g.csv")]) == 0
    capsys.readouterr()
    # Domain errors exit 1 with a categorized message on stderr.
    assert main(["ground", *FAST, "--mass-kg", "-1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error [invalid-parameter]:")
    # argparse errors keep their conventional exit status.
    assert main(["no-such-command"]) == 2
    capsys.readouterr()


def test_json_error_rendering(capsys):
    # The default protocol cap tracks n0 = 1e5, far beyond the exact
    # evolution limit, and the error is reported as structured JSON.
    code = main(
        ["protocol", "--grid-points", "800", "--format", "json", "--cycles", "1"]
    )
    assert code == 1
    err = capsys.readouterr().err
    payload = json.loads(err)
    assert payload["error"]["category"] == "unsupported-regime"
    assert "4000" in payload["error"]["message"]


# ------------------------------------------------------------------- ground


def test_ground_csv_stdout(capsys):
    assert main(["ground", *FAST]) == 0
    out = capsys.readouterr().out
    lines = out.rstrip("\n").split("\n")
    assert lines[0] == "r,xi0"
    assert len(lines) == 1 + 800


def test_ground_output_and_sidecar(tmp_path):
    csv_path = tmp_path / "ground.csv"
    assert main(["ground", *FAST, "--tf", "--output", str(csv_path)]) == 0
    header, data = _read_csv(csv_path)
    assert header == ["r", "xi0", "xi0_tf"]
    assert data.shape == (800, 3)
    summary = json.loads((tmp_path / "ground.json").read_text())
    assert summary["units"] == "trap"
    assert summary["nbar"] == 100.0
    assert summary["residual"] <= 1e-8
    assert summary["iterations"] > 0
    assert 2.0 < summary["mu"] < 3.5


def test_ground_tf_column_absent_without_interactions(tmp_path, capsys):
    args = ["ground", *FAST, "--tf", "--scattering-length-m", "0"]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert out.split("\n", 1)[0] == "r,xi0"
    summary_args = args + ["--format", "json"]
    assert main(summary_args) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["mu"] == pytest.approx(1.5, abs=1e-4)


def test_ground_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["ground", *FAST, "--output", str(a)]) == 0
    assert main(["ground", *FAST, "--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_sidecar_name_avoids_clobbering_json_output(tmp_path):
    out = tmp_path / "data.json"
    assert main(["ground", *FAST, "--output", str(out)]) == 0
    assert out.read_text().startswith("r,xi0")  # CSV table landed there
    assert (tmp_path / "data.json.summary.json").exists()


def test_si_scaling(capsys):
    args = ["ground", *FAST, "--format", "json"]
    assert main(args) == 0
    trap = json.loads(capsys.readouterr().out)
    assert main(args + ["--si"]) == 0
    si = json.loads(capsys.readouterr().out)
    omega = 2.0 * math.pi * 1000.0
    assert si["units"] == "si"
    assert si["mu"] / trap["mu"] == pytest.approx(HBAR * omega, rel=1e-12)


# -------------------------------------------------------------------- modes


def test_modes_csv_and_coefficients(tmp_path):
    csv_path = tmp_path / "modes.csv"
    assert main(["modes", *FAST, "--output", str(csv_path)]) == 0
    header, data = _read_csv(csv_path)
    assert header == ["r", "xi0", "xi1"]
    summary = json.loads((tmp_path / "modes.json").read_text())
    for key in ("alpha2", "alpha3", "alpha4", "beta", "gamma", "mu1", "mu", "g01"):
        assert key in summary
    assert summary["mu1"] > summary["mu"]
    # The emitted profiles are unit-normalized on the emitted grid.
    r, xi0, xi1 = data.T
    h = r[1] - r[0]
    for profile in (xi0, xi1):
        norm = 4.0 * math.pi * h * np.sum(r**2 * profile**2)
        assert norm == pytest.approx(1.0, abs=1e-3)


# ------------------------------------------------------------------ dynamics


def test_dynamics_traces(tmp_path):
    csv_path = tmp_path / "dyn.csv"
    args = ["dynamics", *FAST, "--steps", "41", "--output", str(csv_path)]
    assert main(args) == 0
    header, data = _read_csv(csv_path)
    assert header == ["t", "n1_exact", "n1_analytic"]
    assert data.shape == (41, 3)
    summary = json.loads((tmp_path / "dyn.json").read_text())
    assert summary["m_total"] == 100
    assert summary["stable"] is True
    assert summary["omega_prime"] > 0
    # Default window is one analytic period.
    assert data[-1, 0] == pytest.approx(2.0 * math.pi / summary["omega_prime"], rel=1e-9)
    # Both traces start from an empty excited mode and stay close.
    assert data[0, 1] == pytest.approx(0.0, abs=1e-12)
    assert data[0, 2] == pytest.approx(0.0, abs=1e-12)
    assert np.max(np.abs(data[:, 1] - data[:, 2])) < 0.2 * max(data[:, 1].max(), 1e-3)


def test_dynamics_single_trace_selection(capsys):
    args = ["dynamics", *FAST, "--steps", "5", "--mode", "exact"]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert out.split("\n", 1)[0] == "t,n1_exact"


def test_dynamics_rejects_tiny_step_count(capsys):
    assert main(["dynamics", *FAST, "--steps", "1"]) == 1
    assert "error [config]" in capsys.readouterr().err
    # A non-finite trace length would print nan rows, not a certified trace.
    for bad in ("nan", "inf"):
        assert main(["dynamics", *FAST, "--t-max", bad]) == 1
        assert "error [config]" in capsys.readouterr().err


def test_dynamics_exact_trace_limited_to_eigensolver_size(capsys):
    # The default M = round(nbar) = 1e5 is beyond the exact-evolution limit:
    # exact traces are refused up front, the analytic law still runs there.
    for mode in ("exact", "both"):
        assert main(["dynamics", "--grid-points", "800", "--mode", mode]) == 1
        err = capsys.readouterr().err
        assert "[unsupported-regime]" in err and "--mode analytic" in err
    args = ["dynamics", "--grid-points", "800", "--steps", "5", "--mode", "analytic"]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert out.split("\n", 1)[0] == "t,n1_analytic"


# ---------------------------------------------------------------------- bdg


def test_bdg_table_and_mode_dump(tmp_path):
    csv_path = tmp_path / "bdg.csv"
    dump_path = tmp_path / "uv.csv"
    args = [
        "bdg",
        *FAST,
        "--num-modes",
        "3",
        "--output",
        str(csv_path),
        "--dump-modes",
        str(dump_path),
    ]
    assert main(args) == 0
    header, data = _read_csv(csv_path)
    assert header == ["k", "omega_k", "p_k", "q_k"]
    assert data.shape == (3, 4)
    assert np.array_equal(data[:, 0], [1, 2, 3])
    assert np.all(np.diff(data[:, 1]) > 0)
    summary = json.loads((tmp_path / "bdg.json").read_text())
    assert len(summary["frequencies"]) == 3
    assert summary["c_const"] < 0
    assert abs(summary["residual"]) < 0.1
    dump_header, dump = _read_csv(dump_path)
    assert dump_header == ["r", "u_1", "v_1", "u_2", "v_2", "u_3", "v_3"]
    assert dump.shape == (800, 7)


# ----------------------------------------------------------------- protocol


def test_protocol_trajectory_csv(tmp_path):
    csv_path = tmp_path / "proto.csv"
    args = [
        "protocol",
        *FAST,
        "--cycles",
        "5",
        "--init",
        "point:95",
        "--m-max",
        "115",
        "--output",
        str(csv_path),
    ]
    assert main(args) == 0
    header, data = _read_csv(csv_path)
    assert header == [
        "cycle",
        "mean",
        "variance",
        "retained_mass",
        "lost_mass",
        "removed_this_cycle",
    ]
    assert data.shape == (6, 6)
    assert data[0, 1] == 95.0
    assert np.all(np.diff(data[:, 1]) <= 0)
    summary = json.loads((tmp_path / "proto.json").read_text())
    assert summary["n0"] == 100.0
    assert summary["m_max"] == 115
    assert summary["cycles"] == 5
    assert summary["cycle_time"] > 0


def test_protocol_init_specs(capsys):
    base = ["protocol", *FAST, "--cycles", "1"]
    assert main(base + ["--init", "twopoint:90,110"]) == 0
    capsys.readouterr()
    assert main(base + ["--init", "gaussian:95,4"]) == 0
    capsys.readouterr()
    assert main(base + ["--init", "point:ninety"]) == 1
    assert "malformed --init" in capsys.readouterr().err
    assert main(base + ["--init", "uniform:5"]) == 1
    assert "unknown --init kind" in capsys.readouterr().err
    # Two-point atom numbers outside 0..m_max are rejected, not indexed.
    assert main(base + ["--init", "twopoint:80,120", "--m-max", "100"]) == 1
    assert "error [invalid-parameter]" in capsys.readouterr().err
    assert main(base + ["--init", "twopoint:-5,120"]) == 1
    assert "error [invalid-parameter]" in capsys.readouterr().err
    for spec in ("gaussian:inf,4", "gaussian:100,inf"):
        assert main(base + ["--init", spec]) == 1
        assert "error [config]" in capsys.readouterr().err


# ----------------------------------------------------------------- figure1


def test_figure1_profiles(tmp_path):
    csv_path = tmp_path / "fig.csv"
    args = ["figure1", "--grid-points", "1200", "--output", str(csv_path)]
    assert main(args) == 0
    header, data = _read_csv(csv_path)
    assert header == ["r", "xi0_numeric", "xi0_tf", "xi1"]
    summary = json.loads((tmp_path / "fig.json").read_text())
    assert summary["b_tf"] == pytest.approx(72.0, rel=0.01)
    assert summary["nbar"] == 1e5
    r, xi0, tf, xi1 = data.T
    # Parabolic-density profile: peak sqrt(mu/(nbar*g)) and a sharp edge.
    b = summary["b_tf"]
    assert tf.max() == pytest.approx(math.sqrt(9.78e-4), rel=5e-3)
    edge = math.sqrt(b)
    assert np.all(tf[r >= edge] == 0.0)
    assert np.all(tf[r <= 0.9 * edge] > 0.0)
    # The numeric mode hugs the parabola in the bulk but is smooth at the edge.
    bulk = r <= 0.8 * edge
    assert np.max(np.abs(xi0[bulk] - tf[bulk])) < 0.03 * tf.max()
    # xi1 changes sign once inside the cloud.
    flips = np.sum(np.abs(np.diff(np.sign(xi1[np.abs(xi1) > 1e-6 * np.max(np.abs(xi1))]))) > 0)
    assert flips == 1
