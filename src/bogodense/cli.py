"""Command-line front end: deterministic CSV/JSON emission.

Subcommands: ground, modes, dynamics, bdg, protocol, figure1.  Outputs use
trap units (lengths in r0, energies in hbar*omega, times in 1/omega) unless
--si is given.  With --output PATH the CSV table goes to PATH and a JSON
summary to the .json sidecar; without it, --format picks what lands on
stdout.  Floats are printed with 12 significant digits, so identical inputs
give byte-identical files.
"""

import argparse
import io
import json
import math
import os
import sys
import textwrap
from dataclasses import replace

import numpy as np

from .bdg import decompose_mode1, solve_bdg
from .errors import (
    BogodenseError,
    ConfigError,
    InapplicableLawError,
    UnsupportedRegimeError,
)
from .gpe import solve_gpe, thomas_fermi_mode
from .grid import default_grid
from .modes import build_xi1, coefficients
from .params import HBAR, PhysicalParams, to_dimensionless
from .protocol import (
    ProtocolConfig,
    gaussian_distribution,
    point_distribution,
    run_protocol,
    two_point_distribution,
)
from .twomode import (
    _EIG_LIMIT,
    build_h01,
    fock_state,
    mean_n1_analytic,
    mean_n1_trace,
    oscillation_law,
)

# Largest protocol --m-max: the protocol computes no eigensystem, but it
# iterates a dense transition matrix of (m_max + 1)^2 floats, 128 MB here.
_TRANSITION_CAP = 4000

# Flag and config-file key -> (PhysicalParams field, default, help text).
_PHYSICAL = {
    "mass-kg": ("mass", 1.44e-25, "atomic mass [kg]"),
    "scattering-length-m": ("scattering_length", 1.0e-8, "s-wave scattering length [m]"),
    "trap-frequency-hz": ("trap_frequency", 1000.0, "isotropic trap frequency [Hz]"),
    "nbar": ("nbar", 1.0e5, "mean total atom number"),
    "n0": ("n0", 1.0e5, "mean ground-mode occupation"),
}

_EPILOG = """\
physical constants:
  hbar is fixed to the 2018 CODATA value 1.054571817e-34 J s.

units:
  all output uses trap units (lengths in r0 = sqrt(hbar/(m*omega)), energies
  in hbar*omega, times in 1/omega, omega = 2*pi*trap-frequency) unless --si
  converts to metres, m^(-3/2) mode functions, joules, rad/s and seconds.

config file (--config PATH):
{config}

environment:
  BOGODENSE_THREADS caps BLAS/OpenMP parallelism (set before launch);
  parallelism never changes stdout or the --output CSV/JSON bytes, but the
  bdg --dump-modes profiles may differ in their last digit.
""".format(
    config=textwrap.fill(
        f"flat `key = value` lines with # comments; keys are {', '.join(_PHYSICAL)}."
        "  Flags override file values, file values override defaults.",
        width=78,
        initial_indent="  ",
        subsequent_indent="  ",
        break_on_hyphens=False,
    )
)


def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    phys = common.add_argument_group("physical parameters")
    phys.add_argument("--config", metavar="PATH", help="key = value config file")
    for key, (_, _, text) in _PHYSICAL.items():
        phys.add_argument(f"--{key}", type=float, help=text)
    num = common.add_argument_group("numerics")
    num.add_argument("--grid-points", type=int, default=4000, help="radial nodes")
    num.add_argument(
        "--r-max", type=float, default=None, help="grid extent [r0]; default fits the cloud"
    )
    num.add_argument("--tol", type=float, default=1e-8, help="ground-solver residual")
    num.add_argument("--max-iter", type=int, default=100000, help="solver iteration cap")
    out = common.add_argument_group("output")
    out.add_argument("--output", metavar="PATH", help="CSV path (+ .json sidecar)")
    out.add_argument(
        "--format", choices=("csv", "json"), default="csv", help="stdout payload"
    )
    out.add_argument("--si", action="store_true", help="convert outputs to SI units")

    parser = argparse.ArgumentParser(
        prog="bogodense",
        description="Mean-density two-mode Bogoliubov dynamics of a trapped condensate",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ground", parents=[common], help="condensate mode xi0")
    p.add_argument("--tf", action="store_true", help="add the Thomas-Fermi column")

    sub.add_parser("modes", parents=[common], help="xi0, xi1 and coupling coefficients")

    p = sub.add_parser("dynamics", parents=[common], help="two-mode occupation traces")
    p.add_argument("--m-total", type=int, help="total atom number M (default round(nbar))")
    p.add_argument("--t-max", type=float, help="trace length [1/omega] (default one period)")
    p.add_argument("--steps", type=int, default=401, help="number of sample rows")
    p.add_argument(
        "--mode",
        choices=("exact", "analytic", "both"),
        default="both",
        help=f"which traces to emit (exact needs M <= {_EIG_LIMIT}, the dense "
        "eigenvector cap)",
    )

    p = sub.add_parser("bdg", parents=[common], help="quasiparticle spectrum")
    p.add_argument("--num-modes", type=int, default=8, help="modes to extract")
    p.add_argument("--dump-modes", metavar="PATH", help="write u_k, v_k profiles here")

    p = sub.add_parser("protocol", parents=[common], help="cyclic depletion protocol")
    p.add_argument("--cycles", type=int, default=200, help="number of cycles")
    p.add_argument(
        "--init",
        default="gaussian",
        help="gaussian[:mean,sigma] | point:M | twopoint:M1,M2 (default gaussian at n0)",
    )
    p.add_argument("--m-max", type=int, help="number-distribution cap")

    sub.add_parser(
        "figure1", parents=[common], help="mode profiles at the reference trap"
    )
    return parser


def _read_config_file(path):
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    values = {}
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, val = line.partition("=")
        if not sep:
            raise ConfigError(f"{path}:{lineno}: expected `key = value`, got {raw.strip()!r}")
        key = key.strip()
        val = val.strip()
        if key not in _PHYSICAL:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            values[key] = float(val)
        except ValueError:
            raise ConfigError(
                f"{path}:{lineno}: malformed number for key {key!r}: {val!r}"
            ) from None
    return values


def parse_config(argv=None):
    """Parse flags (and the --config file) into the argparse namespace.

    The resolved PhysicalParams land on its ``physical`` attribute.
    Precedence: flags, then file values, then built-in defaults.
    """
    args = _build_parser().parse_args(argv)
    file_values = _read_config_file(args.config) if args.config else {}
    resolved = {}
    for key, (field, default, _) in _PHYSICAL.items():
        flag = getattr(args, key.replace("-", "_"))
        resolved[field] = flag if flag is not None else file_values.get(key, default)
    args.physical = PhysicalParams(**resolved)
    return args


def _csv_text(header, columns):
    buf = io.StringIO()
    fmt = ["%d" if np.issubdtype(col.dtype, np.integer) else "%.12g" for col in columns]
    np.savetxt(
        buf, np.column_stack(columns), fmt=fmt, delimiter=",",
        header=",".join(header), comments="",
    )
    return buf.getvalue()


def _sanitize(obj):
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        return x if math.isfinite(x) else None
    return obj


def _deliver(cfg, header, columns, summary):
    text = _csv_text(header, columns)
    summary["units"] = "si" if cfg.si else "trap"
    payload = json.dumps(_sanitize(summary), indent=2, sort_keys=True)
    if cfg.output:
        with open(cfg.output, "w", encoding="utf-8") as fh:
            fh.write(text)
        base, ext = os.path.splitext(cfg.output)
        sidecar = base + ".json"
        if sidecar == cfg.output:
            sidecar = cfg.output + ".summary.json"
        with open(sidecar, "w", encoding="utf-8") as fh:
            fh.write(payload + "\n")
    elif cfg.format == "json":
        sys.stdout.write(payload + "\n")
    else:
        sys.stdout.write(text)


def _stages(cfg):
    """The mean-field chain: trap units, grid, xi0, xi1 and the couplings."""
    dp = to_dimensionless(cfg.physical)
    grid = default_grid(dp, n_points=cfg.grid_points, r_max=cfg.r_max)
    gm = solve_gpe(dp, grid, tol=cfg.tol, max_iter=cfg.max_iter)
    m1 = build_xi1(gm)
    return dp, grid, gm, m1, coefficients(gm, m1, dp)


def _scales(cfg, dp):
    """Output factors for lengths, energies and frequencies (1 in trap units)."""
    if not cfg.si:
        return 1.0, 1.0, 1.0
    omega = cfg.physical.omega
    return dp.r0, HBAR * omega, omega


def _cmd_ground(cfg):
    dp, grid, gm, _, _ = _stages(cfg)
    lr, es, _ = _scales(cfg, dp)
    header = ["r", "xi0"]
    columns = [grid.nodes * lr, gm.xi0.values * lr**-1.5]
    if cfg.tf and dp.g > 0:
        tf = thomas_fermi_mode(dp, grid)
        header.append("xi0_tf")
        columns.append(tf.xi0.values * lr**-1.5)
    summary = {
        "mu": gm.mu * es,
        "nbar": gm.nbar,
        "residual": gm.residual,
        "iterations": gm.iterations,
    }
    _deliver(cfg, header, columns, summary)


def _coefficient_summary(coeffs, es):
    return {
        "alpha2": coeffs.alpha2,
        "alpha3": coeffs.alpha3,
        "alpha4": coeffs.alpha4,
        "beta": coeffs.beta,
        "gamma": coeffs.gamma * es,
        "mu1": coeffs.mu1 * es,
        "mu": coeffs.mu * es,
        "g01": coeffs.g01 * es,
    }


def _cmd_modes(cfg):
    dp, grid, gm, m1, coeffs = _stages(cfg)
    lr, es, _ = _scales(cfg, dp)
    header = ["r", "xi0", "xi1"]
    columns = [
        grid.nodes * lr,
        gm.xi0.values * lr**-1.5,
        m1.xi1.values * lr**-1.5,
    ]
    _deliver(cfg, header, columns, _coefficient_summary(coeffs, es))


def _cmd_dynamics(cfg):
    m_total = cfg.m_total if cfg.m_total is not None else round(cfg.physical.nbar)
    if m_total < 1:
        raise ConfigError(f"--m-total must be >= 1, got {m_total}")
    exact = cfg.mode in ("exact", "both")
    if exact and m_total > _EIG_LIMIT:
        raise UnsupportedRegimeError(
            f"exact trace at M = {m_total} exceeds the dense eigenvector cap "
            f"{_EIG_LIMIT} ({8 * (_EIG_LIMIT + 1) ** 2 / 1e6:.0f} MB); "
            f"run with --mode analytic or a smaller --m-total"
        )
    if cfg.steps < 2:
        raise ConfigError(f"--steps must be >= 2, got {cfg.steps}")
    if cfg.t_max is not None and not math.isfinite(cfg.t_max):
        raise ConfigError(f"--t-max must be finite, got {cfg.t_max}")
    dp, _, _, _, coeffs = _stages(cfg)
    _, _, freq = _scales(cfg, dp)
    law = oscillation_law(coeffs, m_total)
    t_max = cfg.t_max
    if t_max is None:
        if not law.stable:
            raise InapplicableLawError(
                f"oscillation law is unstable at M = {m_total}; supply --t-max"
            )
        t_max = 2.0 * math.pi / law.omega_prime
    times = np.linspace(0.0, t_max, cfg.steps)
    header = ["t"]
    columns = [times / freq]
    if exact:
        h = build_h01(coeffs, m_total)
        header.append("n1_exact")
        columns.append(mean_n1_trace(h, fock_state(m_total, 0), times))
    if cfg.mode in ("analytic", "both"):
        if law.stable:
            header.append("n1_analytic")
            columns.append(mean_n1_analytic(law, times))
        elif cfg.mode == "analytic":
            raise InapplicableLawError(
                f"oscillation law is unstable at M = {m_total}"
            )
    summary = {
        "m_total": int(m_total),
        "c1": law.c1,
        "c2": law.c2,
        "omega_prime": law.omega_prime * freq,
        "stable": law.stable,
    }
    _deliver(cfg, header, columns, summary)


def _cmd_bdg(cfg):
    if cfg.num_modes < 1:
        raise ConfigError(f"--num-modes must be >= 1, got {cfg.num_modes}")
    dp, grid, gm, m1, _ = _stages(cfg)
    lr, es, freq = _scales(cfg, dp)
    spectrum = solve_bdg(gm, dp, num_modes=cfg.num_modes)
    decomp = decompose_mode1(m1, spectrum)
    k = np.arange(1, len(spectrum.modes) + 1)
    header = ["k", "omega_k", "p_k", "q_k"]
    columns = [k, spectrum.frequencies * freq, decomp.p, decomp.q]
    summary = {
        "frequencies": list(spectrum.frequencies * freq),
        "p": list(decomp.p),
        "q": list(decomp.q),
        "residual": decomp.residual,
        "c_const": spectrum.c_const * es,
    }
    _deliver(cfg, header, columns, summary)
    if cfg.dump_modes:
        dump_header = ["r"]
        dump_columns = [grid.nodes * lr]
        for i, mode in enumerate(spectrum.modes, 1):
            dump_header += [f"u_{i}", f"v_{i}"]
            dump_columns += [mode.u.values * lr**-1.5, mode.v.values * lr**-1.5]
        with open(cfg.dump_modes, "w", encoding="utf-8") as fh:
            fh.write(_csv_text(dump_header, dump_columns))


def _initial_distribution(spec, n0, m_max):
    """The --init distribution on 0..m_max; m_max defaults to its support."""
    kind, _, rest = spec.partition(":")
    try:
        if kind == "gaussian":
            make = gaussian_distribution
            if rest:
                mean_s, _, sigma_s = rest.partition(",")
                args = (float(mean_s), float(sigma_s))
                if not all(map(math.isfinite, args)):
                    raise ConfigError(f"--init {spec!r} needs a finite mean and sigma")
            else:
                args = (n0, math.sqrt(n0))
            support = int(math.ceil(args[0] + 6.0 * args[1]))
        elif kind == "point":
            make, args = point_distribution, (int(rest),)
            support = args[0]
        elif kind == "twopoint":
            m1_s, _, m2_s = rest.partition(",")
            make, args = two_point_distribution, (int(m1_s), int(m2_s))
            support = max(args)
        else:
            raise ConfigError(
                f"unknown --init kind {kind!r} (want gaussian, point or twopoint)"
            )
    except (ValueError, OverflowError):
        raise ConfigError(f"malformed --init spec {spec!r}") from None
    if m_max is None:
        m_max = support
    if m_max < 1:
        raise ConfigError(
            f"protocol cap m_max = {m_max} must be >= 1 (from --m-max or --init)"
        )
    if m_max > _TRANSITION_CAP:
        raise UnsupportedRegimeError(
            f"protocol cap m_max = {m_max} exceeds the dense transition-matrix "
            f"cap {_TRANSITION_CAP} ({8 * (_TRANSITION_CAP + 1) ** 2 / 1e6:.0f} MB); "
            f"run with a desk-scale --n0"
        )
    return make(*args, m_max=m_max)


def _cmd_protocol(cfg):
    if cfg.cycles < 1:
        raise ConfigError(f"--cycles must be >= 1, got {cfg.cycles}")
    n0 = cfg.physical.n0
    init = _initial_distribution(cfg.init, n0, cfg.m_max)
    # The protocol works at its target occupation: every coefficient is
    # evaluated with nbar = n0.
    cfg.physical = replace(cfg.physical, nbar=n0)
    dp, _, _, _, coeffs = _stages(cfg)
    _, _, freq = _scales(cfg, dp)
    pcfg = ProtocolConfig(n0=n0, coeffs=coeffs, cycles=cfg.cycles, m_max=init.m_max)
    result = run_protocol(init, pcfg)
    cycles = np.arange(result.means.size)
    header = ["cycle", "mean", "variance", "retained_mass", "lost_mass", "removed_this_cycle"]
    columns = [
        cycles,
        result.means,
        result.variances,
        result.retained_mass,
        result.lost_mass,
        result.removed,
    ]
    summary = {"n0": n0, "init": cfg.init, "m_max": init.m_max}
    summary.update(result.summary())
    summary["cycle_time"] = result.cycle_time / freq
    _deliver(cfg, header, columns, summary)


def _cmd_figure1(cfg):
    dp, grid, gm, m1, coeffs = _stages(cfg)
    lr, es, _ = _scales(cfg, dp)
    header = ["r", "xi0_numeric"]
    columns = [grid.nodes * lr, gm.xi0.values * lr**-1.5]
    if dp.g > 0:
        tf = thomas_fermi_mode(dp, grid)
        header.append("xi0_tf")
        columns.append(tf.xi0.values * lr**-1.5)
    header.append("xi1")
    columns.append(m1.xi1.values * lr**-1.5)
    summary = {
        "b_tf": dp.b_tf,
        "nbar": dp.nbar,
        "residual": gm.residual,
    }
    summary.update(_coefficient_summary(coeffs, es))
    _deliver(cfg, header, columns, summary)


_DISPATCH = {
    "ground": _cmd_ground,
    "modes": _cmd_modes,
    "dynamics": _cmd_dynamics,
    "bdg": _cmd_bdg,
    "protocol": _cmd_protocol,
    "figure1": _cmd_figure1,
}


def main(argv=None):
    fmt = "csv"
    try:
        cfg = parse_config(argv)
        fmt = cfg.format
        _DISPATCH[cfg.command](cfg)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (BogodenseError, OSError, MemoryError) as exc:
        if isinstance(exc, MemoryError):
            category, message = "unsupported-regime", f"out of memory: {exc}"
        else:
            category, message = getattr(exc, "category", "io"), str(exc)
        if fmt == "json":
            payload = {"error": {"category": category, "message": message}}
            sys.stderr.write(json.dumps(payload) + "\n")
        else:
            sys.stderr.write(f"error [{category}]: {message}\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
