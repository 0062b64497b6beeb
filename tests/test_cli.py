"""Command-line interface tests: parsing, precedence, emission, errors."""

import json
import math
import os
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bogodense.errors as errors
from bogodense import HBAR, ConfigError
from bogodense.bdg import EIGEN_RESIDUAL_TOL
from bogodense.cli import _PHYSICAL, main, parse_config

FAST = ["--nbar", "100", "--n0", "100", "--grid-points", "800"]


def _read_csv(path):
    lines = path.read_text().rstrip("\n").split("\n")
    header = lines[0].split(",")
    data = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])
    return header, data


# ------------------------------------------------------------------- parsing


def test_defaults_applied():
    cfg = parse_config(["ground"])
    for field, default, _ in _PHYSICAL.values():
        assert getattr(cfg.physical, field) == default, field
    assert cfg.grid_points == 4000
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
    assert cfg.physical.mass == _PHYSICAL["mass-kg"][1]  # default survives


# Each key with the field it must land in, written out here rather than read
# from the table, so a mis-mapped row of the table fails.
PHYSICAL_FIELDS = [
    ("mass-kg", "mass"),
    ("scattering-length-m", "scattering_length"),
    ("trap-frequency-hz", "trap_frequency"),
    ("nbar", "nbar"),
    ("n0", "n0"),
]


@pytest.mark.parametrize("key, field", PHYSICAL_FIELDS)
def test_physical_parameter_precedence(tmp_path, key, field):
    defaults = parse_config(["ground"]).physical
    default = getattr(defaults, field)
    path = tmp_path / "run.cfg"
    path.write_text(f"{key} = {2 * default!r}\n")
    flag = ["--" + key, repr(3 * default)]
    for argv, expected in (
        (["--config", str(path), *flag], 3 * default),  # flag beats file
        (["--config", str(path)], 2 * default),  # file beats default
        ([], default),
    ):
        physical = parse_config(["ground", *argv]).physical
        assert getattr(physical, field) == expected, argv
        for _, other in PHYSICAL_FIELDS:
            if other != field:
                assert getattr(physical, other) == getattr(defaults, other), (argv, other)


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


def test_config_file_undecodable_bytes(tmp_path, capsys):
    # A byte that is not UTF-8 ended in a UnicodeDecodeError traceback.
    path = tmp_path / "bad.cfg"
    path.write_bytes(b"nbar = 1\xff00\n")
    assert main(["ground", "--grid-points", "800", "--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error [config]: cannot read config file {path}:")


def test_config_file_byte_order_mark(tmp_path, capsys):
    # A file saved with a UTF-8 BOM was refused as unknown key '\ufeffnbar'.
    path = tmp_path / "bom.cfg"
    path.write_bytes(b"\xef\xbb\xbfnbar = 100\nn0 = 100\n")
    assert main(["ground", "--grid-points", "800", "--config", str(path)]) == 0
    from_file = capsys.readouterr()
    assert main(["ground", *FAST]) == 0
    assert from_file.err == "" and from_file.out == capsys.readouterr().out


def test_help_names_exactly_the_config_keys(capsys):
    # The epilog listed the keys by hand beside _PHYSICAL, so a renamed row
    # would have left --help naming a key the file reader refuses.
    assert main(["--help"]) == 0
    text = " ".join(capsys.readouterr().out.split())
    keys = text.split("keys are ", 1)[1].split(". ", 1)[0]
    assert keys.split(", ") == list(_PHYSICAL)


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


def test_option_errors_reported_before_solve(monkeypatch, capsys):
    # Every check that does not need the solved mode runs before the GPE.
    def no_solve(*args, **kwargs):
        raise AssertionError("solve_gpe called before the option checks")

    monkeypatch.setattr("bogodense.cli.solve_gpe", no_solve)
    cases = [
        (["dynamics", "--steps", "1"], "config"),
        (["dynamics", "--t-max", "nan"], "config"),
        (["dynamics", "--m-total", "0"], "config"),
        (["dynamics", "--m-total", "5000"], "unsupported-regime"),
        (["protocol", "--init", "point:5000"], "unsupported-regime"),
        (["protocol", "--init", "twopoint:5,1e3"], "config"),
        (["protocol", "--init", "gaussian:inf,4"], "config"),
        (["protocol", "--cycles", "0", "--init", "point:90"], "config"),
        (["bdg", "--num-modes", "0"], "config"),
        (["protocol", "--m-max", "0"], "config"),
        (["protocol", "--init", "point:0"], "config"),
        (["protocol", "--m-max", "-3"], "config"),
    ]
    for argv, category in cases:
        assert main(argv[:1] + FAST + argv[1:]) == 1, argv
        assert capsys.readouterr().err.startswith(f"error [{category}]:"), argv


def test_json_error_rendering(capsys):
    # The default protocol cap tracks n0 = 1e5, far beyond the dense
    # transition-matrix cap, and the error is reported as structured JSON.
    code = main(
        ["protocol", "--grid-points", "800", "--format", "json", "--cycles", "1"]
    )
    assert code == 1
    err = capsys.readouterr().err
    payload = json.loads(err)
    assert payload["error"]["category"] == "unsupported-regime"
    assert "transition-matrix cap 4000" in payload["error"]["message"]


def _error_category(text, fmt):
    if fmt == "json":
        return json.loads(text)["error"]["category"]
    assert text.startswith("error ["), text
    return text[len("error [") :].split("]:", 1)[0]


def test_out_of_memory_is_categorized(monkeypatch, capsys):
    # numpy's _ArrayMemoryError (say --steps 1e9 under `ulimit -v`) escaped
    # main as a traceback.
    def no_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 7.45 GiB")

    monkeypatch.setattr("bogodense.cli.solve_gpe", no_memory)
    for fmt in ("csv", "json"):
        assert main(["ground", *FAST, "--format", fmt]) == 1, fmt
        captured = capsys.readouterr()
        assert captured.out == "", fmt
        assert _error_category(captured.err, fmt) == "unsupported-regime", fmt
        assert "out of memory: Unable to allocate 7.45 GiB" in captured.err, fmt


def test_float_overflowing_m_total_refused(capsys):
    # M = 1e160 overflowed (M - nbar)**2 in the oscillation law and M above
    # 1.8e308 overflowed float(M): OverflowError tracebacks.
    for m_total in ("1" + "0" * 160, "1" + "0" * 310):
        for fmt in ("csv", "json"):
            args = ["dynamics", *FAST, "--mode", "analytic", "--steps", "3",
                    "--m-total", m_total, "--format", fmt]
            assert main(args) == 1, (m_total, fmt)
            captured = capsys.readouterr()
            assert captured.out == ""
            assert _error_category(captured.err, fmt) == "invalid-parameter"
            assert "overflows a float" in captured.err


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


def test_ground_rejects_a_grid_inside_the_cloud(capsys):
    # These grids end inside the cloud (Thomas-Fermi radius about 2.3):
    # the solve converged to the hard-wall mode of the box and printed
    # mu = 131.7 (r_max = 0.5) and 4.22 (r_max = 2) against 2.71.
    for r_max in ("0.5", "2"):
        assert main(["ground", *FAST, "--r-max", r_max]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error [truncation-overflow]:")
        assert "r_max" in captured.err


def test_huge_r_max_refused_without_warnings(capsys):
    # r_max = 1e308 squared its nodes to inf: three numpy RuntimeWarnings
    # came before the error.  r_max = 1e20 passes the grid, but its spacing
    # leaves the GPE's initial guess zero on every node (it divided 0/0).
    for r_max in ("1e308", "1e160", "1e20"):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["modes", "--grid-points", "800", "--r-max", r_max]) == 1
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error [invalid-parameter]:"), captured.err


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
    # M < 1 used to print c1 = c2 = 0 (M = 0) or a negative <n1> (M < 0).
    for bad in ("0", "-5"):
        assert main(["dynamics", *FAST, "--mode", "analytic", "--m-total", bad]) == 1
        assert "error [config]" in capsys.readouterr().err
    # At --t-max 1e308 the phases w*t overflowed: nan rows, numpy warnings
    # on stderr and exit 0.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for mode in ("both", "analytic"):
            args = ["dynamics", *FAST, "--steps", "3", "--t-max", "1e308", "--mode", mode]
            assert main(args) == 1, mode
            captured = capsys.readouterr()
            assert captured.out == "", mode
            assert captured.err.startswith("error [invalid-parameter]:"), mode
    # At --t-max 1e12 the exact trace printed phase noise and exit 0: it now
    # serves the times evolve_exact serves.  1e6 is still served.
    args = ["dynamics", *FAST, "--m-total", "120", "--steps", "3", "--mode", "exact"]
    assert main([*args, "--t-max", "1e12"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error [unsupported-regime]:")
    assert "Chebyshev steps" in captured.err
    assert main([*args, "--t-max", "1e6"]) == 0
    assert capsys.readouterr().out.startswith("t,n1_exact\n")


# Requests whose stdout and files must not depend on the BLAS thread
# count, as the --help epilog promises for every output: the exact trace's
# t = 0 cell used to, bdg and the twopoint protocol are golden inputs, the
# protocol at n0 = 300 starts from the default gaussian, and the mode
# profiles used to differ in 12-16 cells.
_THREAD_CASES = {
    "dynamics": ["dynamics", "--nbar", "1000", "--n0", "1000", "--grid-points", "1500",
                 "--steps", "300"],
    "bdg": ["bdg", "--nbar", "100", "--n0", "100", "--grid-points", "1500"],
    "bdg --dump-modes": ["bdg", "--nbar", "100", "--n0", "100", "--grid-points", "1500",
                         "--dump-modes", "modes.csv"],
    "protocol": ["protocol", "--nbar", "100", "--n0", "100", "--grid-points", "1500",
                 "--init", "twopoint:80,120"],
    "protocol-300": ["protocol", "--nbar", "300", "--n0", "300", "--grid-points", "1500"],
}


@pytest.mark.parametrize("name", _THREAD_CASES)
def test_output_bytes_independent_of_thread_count(name, tmp_path):
    # Each request runs in its own empty directory; stdout and every file
    # it writes there are compared.
    src = Path(__file__).resolve().parents[1] / "src"
    for fmt in ("csv", "json"):
        outputs = []
        for threads in ("1", "2"):
            env = {k: v for k, v in os.environ.items()
                   if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
            env["BOGODENSE_THREADS"] = threads
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
            cwd = tmp_path / f"{fmt}-{threads}"
            cwd.mkdir()
            proc = subprocess.run(
                [sys.executable, "-m", "bogodense.cli", *_THREAD_CASES[name], "--format", fmt],
                env=env, capture_output=True, check=True, cwd=cwd,
            )
            files = sorted((p.name, p.read_bytes()) for p in cwd.iterdir())
            outputs.append((proc.stdout, files))
        assert outputs[0] == outputs[1], fmt
        if name == "dynamics" and fmt == "csv":
            assert outputs[0][0].split(b"\n")[1] == b"0,0,0"
        if name == "bdg --dump-modes":
            assert [f for f, _ in outputs[0][1]] == ["modes.csv"]


def test_thread_cap_after_numpy_import_warns():
    # BOGODENSE_THREADS only caps the pools when bogodense loads before
    # numpy; after numpy the import warns on stderr and prints nothing.
    # The suite's own BOGODENSE_THREADS is dropped so the uncapped run is one.
    src = Path(__file__).resolve().parents[1] / "src"
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                        "NUMEXPR_NUM_THREADS", "PYTHONWARNINGS", "BOGODENSE_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))

    def run(code, cap):
        run_env = dict(env, BOGODENSE_THREADS=cap) if cap else env
        return subprocess.run(
            [sys.executable, "-c", code], env=run_env, capture_output=True, check=True
        )

    late = run("import numpy, bogodense", "1")
    assert late.stdout == b""
    assert b"RuntimeWarning" in late.stderr and b"BOGODENSE_THREADS" in late.stderr
    for code, cap in (("import bogodense", "1"), ("import numpy, bogodense", None)):
        proc = run(code, cap)
        assert proc.stdout == b"" and proc.stderr == b""


def _fresh_python(*args, **extra_env):
    """Run a fresh interpreter on the source tree; return its stdout."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, **extra_env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *args], env=env, capture_output=True, check=True)
    return proc.stdout.decode()


# Prints the scipy modules loaded by a CLI request run as `python -m
# bogodense.cli ARGS...` would run it.
_SCIPY_AFTER_REQUEST = """\
import runpy, sys
try:
    runpy.run_module("bogodense.cli", run_name="__main__")
except SystemExit as exc:
    assert not exc.code, exc.code
print(sorted(m for m in sys.modules if m.partition(".")[0] == "scipy"))
"""


def test_import_leaves_scipy_sparse_unloaded(tmp_path):
    # Every name of the package root loads on first use.  A fresh `import
    # bogodense` loads no scipy module, and a request that stops at the
    # mean-field stages loads scipy's LAPACK extension alone, for its
    # ground solve's dptsv: no scipy, scipy.linalg or scipy.sparse package.
    code = "import sys, bogodense; print([m for m in sys.modules if m.startswith('scipy')])"
    assert _fresh_python("-c", code) == "[]\n"
    for argv in (["ground", "--tf"], ["modes"], ["figure1"]):
        out = tmp_path / f"{argv[0]}.csv"
        args = [*argv, "--grid-points", "800", "--output", str(out)]
        loaded = _fresh_python("-c", _SCIPY_AFTER_REQUEST, *args)
        assert loaded == "['scipy.linalg._flapack']\n", argv
        assert out.read_text().startswith("r,xi0")


# Prints what `import bogodense` loads, then checks every public name
# against the root's table: listed, resolved to its home module's object,
# and bound by a star import.
_PUBLIC_NAMES = """\
import importlib, sys
import bogodense as b
print([m for m in sys.modules if m.partition(".")[0] in ("numpy", "scipy", "bogodense")])
table = sorted(n for names in b._NAMES.values() for n in names)
print(b.__all__ == table)
listed = dir(b)
print([n for n in b.__all__ if n not in listed])
print([n for n in b.__all__ if getattr(b, n, None) is None])
print(hasattr(b, "no_such_name"))
print([n for m, names in b._NAMES.items() for n in names
       if getattr(b, n) is not getattr(importlib.import_module(f"bogodense.{m}"), n)])
star = {}
exec("from bogodense import *", star)
print(sorted(set(b.__all__) - set(star)))
"""


def test_public_names_resolve_lazily():
    # `import bogodense` loads nothing but the package root; each public
    # name is written once, in the root's table, and loads on first use.
    out = _fresh_python("-c", _PUBLIC_NAMES)
    assert out == "['bogodense']\nTrue\n[]\n[]\nFalse\n[]\n[]\n"


def test_protocol_names_keep_ground_solves_on_lapack(tmp_path):
    # The two-mode stage takes dsbevd, dgbtrf, dgbtrs, dpbtrf and dia_matvec
    # from scipy's two extension modules and no scipy package, and every
    # ground solve runs on the dptsv of the same LAPACK extension.  No
    # request imports a scipy package.
    code = (
        "import sys, bogodense; bogodense.ProtocolConfig; from bogodense import gpe; "
        "print(gpe.dptsv is sys.modules['scipy.linalg._flapack'].dptsv)"
    )
    assert _fresh_python("-c", code) == "True\n"
    # Whichever of scipy.linalg and twomode loads first, there is one
    # LAPACK extension object.
    for first, second in (("scipy.linalg", "bogodense.twomode"), ("bogodense.twomode", "scipy.linalg")):
        code = (
            f"import {first}, {second}, scipy.linalg.lapack as lapack, bogodense.twomode as t; "
            "print(t._flapack is lapack._flapack and t.dsbevd is lapack.dsbevd)"
        )
        assert _fresh_python("-c", code) == "True\n", first
    extensions = "['scipy.linalg._flapack', 'scipy.sparse._sparsetools']\n"
    desk = (
        ("dynamics", "--nbar", "100", "--n0", "100"),
        ("protocol", "--cycles", "200", "--n0", "100", "--nbar", "100"),
    )
    for argv in desk:
        args = [*argv, "--output", str(tmp_path / f"{argv[0]}.csv")]
        assert _fresh_python("-c", _SCIPY_AFTER_REQUEST, *args) == extensions, argv[0]
    # The BdG solve runs on the same LAPACK extension: dpttrf, dpbtrf,
    # dpbtrs, dtbtrs and dgbsv.
    loaded = _fresh_python("-c", _SCIPY_AFTER_REQUEST, "bdg", "--output", str(tmp_path / "bdg.csv"))
    assert loaded == "['scipy.linalg._flapack']\n"


# Runs each CLI request given as a JSON list of argument lists, then a
# library trace at M = 100, all in one fresh interpreter, and prints the
# steps after which numpy.random is loaded: the first one loaded it.
_RANDOM_AFTER_STEPS = """\
import json, runpy, sys
loaded = []
for argv in json.loads(sys.argv[1]):
    sys.argv = ["bogodense", *argv]
    try:
        runpy.run_module("bogodense.cli", run_name="__main__")
    except SystemExit as exc:
        assert not exc.code, exc.code
    loaded += [argv[0]] if "numpy.random" in sys.modules else []
import bogodense as b
dp = b.to_dimensionless(b.PhysicalParams(
    mass=1.44e-25, scattering_length=1e-8, trap_frequency=1000.0, nbar=100.0, n0=100.0))
gm = b.solve_gpe(dp, b.default_grid(dp, n_points=1500))
co = b.coefficients(gm, b.build_xi1(gm), dp)
b.mean_n1_trace(b.build_h01(co, 100), b.fock_state(100, 0), [0.0, 0.5, 1.0])
loaded += ["mean_n1_trace"] if "numpy.random" in sys.modules else []
print(loaded)
"""


def test_no_request_loads_numpy_random(tmp_path):
    # The inverse-iteration starts of the exact trace are numpy arithmetic,
    # so no CLI request and no library trace loads numpy.random (and
    # through it secrets, hashlib, hmac and OpenSSL's _hashlib).
    requests = [
        ["ground", "--tf"],
        ["modes"],
        ["figure1"],
        ["bdg"],
        ["dynamics", "--nbar", "100", "--n0", "100"],
        ["protocol", "--cycles", "200", "--n0", "100", "--nbar", "100"],
    ]
    argvs = [[*argv, "--output", str(tmp_path / f"{argv[0]}.csv")] for argv in requests]
    assert _fresh_python("-c", _RANDOM_AFTER_STEPS, json.dumps(argvs)) == "[]\n"
    for argv in requests:
        assert (tmp_path / f"{argv[0]}.csv").stat().st_size > 0, argv[0]


# The --help texts of the tree before the CLI's imports became per
# command; `dynamics --help` names the eigensolver limit, which no longer
# comes from twomode and no longer prices an (M + 1)^2 eigenvector matrix,
# and the epilog no longer excepts the bdg mode profiles from its
# thread-count promise.  argparse's layout at 80 columns, Python 3.11.
HELP = """\
usage: bogodense [-h] {ground,modes,dynamics,bdg,protocol,figure1} ...

Mean-density two-mode Bogoliubov dynamics of a trapped condensate

positional arguments:
  {ground,modes,dynamics,bdg,protocol,figure1}
    ground              condensate mode xi0
    modes               xi0, xi1 and coupling coefficients
    dynamics            two-mode occupation traces
    bdg                 quasiparticle spectrum
    protocol            cyclic depletion protocol
    figure1             mode profiles at the reference trap

options:
  -h, --help            show this help message and exit

physical constants:
  hbar is fixed to the 2018 CODATA value 1.054571817e-34 J s.

units:
  all output uses trap units (lengths in r0 = sqrt(hbar/(m*omega)), energies
  in hbar*omega, times in 1/omega, omega = 2*pi*trap-frequency) unless --si
  converts to metres, m^(-3/2) mode functions, joules, rad/s and seconds.

config file (--config PATH):
  flat `key = value` lines with # comments; keys are mass-kg,
  scattering-length-m, trap-frequency-hz, nbar, n0.  Flags override file
  values, file values override defaults.

environment:
  BOGODENSE_THREADS caps BLAS/OpenMP parallelism (set before launch);
  parallelism never changes stdout, the --output CSV/JSON or the bdg
  --dump-modes bytes.
"""
DYNAMICS_HELP = """\
usage: bogodense dynamics [-h] [--config PATH] [--mass-kg MASS_KG]
                          [--scattering-length-m SCATTERING_LENGTH_M]
                          [--trap-frequency-hz TRAP_FREQUENCY_HZ]
                          [--nbar NBAR] [--n0 N0] [--grid-points GRID_POINTS]
                          [--r-max R_MAX] [--output PATH]
                          [--format {csv,json}] [--si] [--m-total M_TOTAL]
                          [--t-max T_MAX] [--steps STEPS]
                          [--mode {exact,analytic,both}]

options:
  -h, --help            show this help message and exit
  --m-total M_TOTAL     total atom number M (default round(nbar))
  --t-max T_MAX         trace length [1/omega] (default one period)
  --steps STEPS         number of sample rows
  --mode {exact,analytic,both}
                        which traces to emit (exact needs M <= 4000, the
                        eigensolver limit)

physical parameters:
  --config PATH         key = value config file
  --mass-kg MASS_KG     atomic mass [kg]
  --scattering-length-m SCATTERING_LENGTH_M
                        s-wave scattering length [m]
  --trap-frequency-hz TRAP_FREQUENCY_HZ
                        isotropic trap frequency [Hz]
  --nbar NBAR           mean total atom number
  --n0 N0               mean ground-mode occupation

numerics:
  --grid-points GRID_POINTS
                        radial nodes
  --r-max R_MAX         grid extent [r0]; default fits the cloud

output:
  --output PATH         CSV path (+ .json sidecar)
  --format {csv,json}   stdout payload
  --si                  convert outputs to SI units
"""


def test_help_text_is_unchanged():
    assert _fresh_python("-m", "bogodense.cli", "--help", COLUMNS="80") == HELP
    assert _fresh_python("-m", "bogodense.cli", "dynamics", "--help", COLUMNS="80") == DYNAMICS_HELP


def test_dynamics_exact_trace_limited_to_eigensolver_size(monkeypatch, capsys):
    # The default M = round(nbar) = 1e5, and M = 4001 just past it, are
    # beyond the CLI's eigensolver limit on the sampled trace: exact traces
    # are refused before the GPE solve, the analytic law still runs there.
    def no_solve(*args, **kwargs):
        raise AssertionError("solve_gpe called before the eigensolver limit")

    with monkeypatch.context() as patch:
        patch.setattr("bogodense.cli.solve_gpe", no_solve)
        for extra in ([], ["--m-total", "4001"]):
            for mode in ("exact", "both"):
                assert main(["dynamics", "--grid-points", "800", "--mode", mode, *extra]) == 1
                err = capsys.readouterr().err
                assert "[unsupported-regime]" in err and "--mode analytic" in err
                assert "eigensolver limit 4000;" in err
    args = ["dynamics", "--grid-points", "800", "--steps", "5", "--mode", "analytic"]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert out.split("\n", 1)[0] == "t,n1_analytic"


def test_dynamics_unstable_law_refused(capsys):
    # At the default trap the law turns unstable between M = 109500 and
    # 110000: without --t-max there is no period to default to, and with it
    # the analytic trace has no closed form.
    base = ["dynamics", "--grid-points", "800", "--steps", "3", "--mode", "analytic",
            "--m-total", "120000"]
    for extra, phrase in (([], "supply --t-max"), (["--t-max", "1"], "unstable at M = 120000")):
        assert main(base + extra) == 1, extra
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error [inapplicable-law]:"), captured.err
        assert phrase in captured.err


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
    assert 0.0 < summary["eigen_residual"] <= EIGEN_RESIDUAL_TOL
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


def test_protocol_ignores_nbar(tmp_path):
    # The protocol evaluates every coefficient at nbar = n0, so --nbar
    # changes no byte of its output.
    for nbar in ("100", "120"):
        args = ["protocol", "--nbar", nbar, "--n0", "100", "--grid-points", "800",
                "--cycles", "20", "--output", str(tmp_path / f"{nbar}.csv")]
        assert main(args) == 0, nbar
    for ext in ("csv", "json"):
        assert (tmp_path / f"100.{ext}").read_bytes() == (tmp_path / f"120.{ext}").read_bytes()


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


def test_protocol_tiny_gaussian_is_a_point_mass(capsys):
    # sigma = 1e-300 printed numpy's overflow warning on stderr before the
    # point-mass table.
    args = ["protocol", *FAST, "--cycles", "2"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(args + ["--init", "gaussian:100,1e-300"]) == 0
    tiny = capsys.readouterr()
    assert tiny.err == ""
    assert main(args + ["--init", "point:100"]) == 0
    assert tiny.out == capsys.readouterr().out


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


# ------------------------------------------------------------ main() contract

CATEGORIES = {
    cls.category
    for cls in vars(errors).values()
    if isinstance(cls, type) and issubclass(cls, errors.BogodenseError)
}


def _float_flag(valid):
    return st.sampled_from([valid, "0", "-3", "nan", "inf", "1e308", "x"])


def _int_flag(valid):
    return st.sampled_from([valid, "0", "-3", "x"])


INIT_SPECS = [
    "gaussian", "gaussian:90,8", "point:90", "twopoint:80,120",
    "gaussian:", "gaussian:90", "gaussian:nan,8", "gaussian:90,-1", "gaussian:1e308,1",
    "point:", "point:x", "point:-3", "point:1e3", "twopoint:5", "twopoint:-5,120",
    "uniform:5", "", ":",
]

# Each flag is drawn or left out, except those in BOUNDED and in the second
# dict of OWN[command]: they are always given, since their defaults (4000
# grid points, 401 steps, 200 cycles) are slow.  With every valid sector at
# M <= 300 an example stays under a second.
COMMON = {
    "--nbar": _float_flag("100"),
    "--n0": _float_flag("100"),
    "--mass-kg": _float_flag("1.44e-25"),
    "--scattering-length-m": _float_flag("1e-8"),
    "--trap-frequency-hz": _float_flag("1000"),
    "--r-max": _float_flag("8"),
    "--format": st.sampled_from(["csv", "json"]),
    "--si": st.none(),
}
BOUNDED = {"--grid-points": _int_flag("800")}
OWN = {
    "ground": ({"--tf": st.none()}, {}),
    "modes": ({}, {}),
    "figure1": ({}, {}),
    "bdg": ({"--num-modes": _int_flag("4")}, {}),
    "dynamics": (
        {
            "--m-total": st.sampled_from(["300", "0", "-3", "x", "1" + "0" * 160]),
            "--t-max": _float_flag("1.5"),
            "--mode": st.sampled_from(["exact", "analytic", "both"]),
        },
        {"--steps": _int_flag("50")},
    ),
    "protocol": (
        {"--init": st.sampled_from(INIT_SPECS), "--m-max": _int_flag("300")},
        {"--cycles": _int_flag("50")},
    ),
}


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(OWN)))
    optional, required = OWN[command]
    argv = [command]
    for flag, values in {**BOUNDED, **required}.items():
        argv += [flag, draw(values)]
    for flag, values in {**COMMON, **optional}.items():
        if draw(st.booleans()):
            value = draw(values)
            argv += [flag] if value is None else [flag, value]
    return argv


@settings(max_examples=40)
@given(argv=_argv())
def test_main_returns_a_status_and_never_raises(argv):
    out, err = StringIO(), StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2), (argv, code)
    # A numpy overflow or 0/0 on the way to the result is a fault even when
    # a later check turns the result into a categorized error.
    numeric = [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]
    assert not numeric, (argv, numeric)
    if code == 1:
        text = err.getvalue()
        category = _error_category(text, "json" if text.startswith("{") else "csv")
        assert category in CATEGORIES, (argv, text)
    elif code == 0 and "json" not in argv:
        cells = {c.lower() for line in out.getvalue().split("\n") for c in line.split(",")}
        assert not {"nan", "inf", "-inf"} & cells, argv
