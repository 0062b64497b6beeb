"""Independent references and the checks that compare job outputs to them.

References are computed once per run, after the timed passes, and never by
the code path a job exercises:

* ``trace``: dense ``numpy.linalg.eigh`` of ``h.to_dense()`` propagated in
  one matrix product, plus the closed-form oscillation law and an FFT line
  search written here (criterion 2's two clauses);
* ``evolve_large``: ``scipy.sparse.linalg.expm_multiply`` on the sparse
  Hamiltonian;
* ``bimodal`` / ``truncate``: kernels from dense ``eigh`` iterated as a
  transition matrix, plus probability conservation and a non-increasing
  mean;
* ``cli_desk``: exit status 0 and the JSON summary and CSV columns of each
  request against the same quantities computed through the library.

Every check returns a list of failure messages; an empty list is a pass.
"""

import csv
import io
import json
import math

import numpy as np

from workloads import TRACE_PERIODS, TRACE_SAMPLES, TRAP, coefficients_at

# Job outputs against their references.
TRACE_TOL = 1e-8  # max |<n1> - ref| / max(1, max ref)
EVOLVE_TOL = 1e-6  # relative <n1> and L1 distance of the occupation probabilities
PROTOCOL_TOL = 1e-9  # conservation, monotonicity and final distribution
COEFF_TOL = 1e-10  # job coefficients against a fresh library solve
CLI_REL, CLI_ABS = 1e-8, 1e-10  # CLI numbers against the library (12 digits printed)
# Criterion 2 clauses on the exact trace.
LAW_DEV_TOL = 0.15
FREQ_DEV_TOL = 0.02
# Eigen-overlaps below this weight are dropped from the dense reference; the
# discarded weight times M bounds the error it adds to <n1>.
REF_WEIGHT_FLOOR = 1e-24

COEFF_FIELDS = ("alpha2", "alpha3", "alpha4", "beta", "gamma", "mu1", "mu", "g01", "nbar")


def _rel(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


def check_coeffs(job_co, ref_co):
    return [
        f"coefficient {f} off by {_rel(getattr(job_co, f), getattr(ref_co, f)):.2e}"
        for f in COEFF_FIELDS
        if _rel(getattr(job_co, f), getattr(ref_co, f)) > COEFF_TOL
    ]


# ------------------------------------------------------- closed-form law


def oscillation_law(co, m_total):
    """(w', c1, c2) of the linearized two-mode model, from the coefficients."""
    m = float(m_total)
    g_alpha2 = co.g01 * co.beta * co.alpha2
    delta = co.gamma * (2.0 * m - co.nbar) - (m - co.nbar) * g_alpha2 + co.mu1 - co.mu
    gm = co.gamma * m
    hw2 = delta**2 - gm**2
    if hw2 <= 0:
        raise ValueError(f"law is unstable at M = {m_total}")
    lam2 = co.g01**2 * (m - co.nbar) ** 2 * m
    return math.sqrt(hw2), (gm**2 + lam2) / hw2, lam2 * (delta - gm) ** 2 / hw2**2


def strongest_line(times, values, pad=8):
    """Angular frequency of the largest peak of a Hann-windowed, zero-padded
    spectrum, refined by a parabola through the peak bin."""
    n = values.size
    dt = times[1] - times[0]
    spec = np.abs(np.fft.rfft((values - values.mean()) * np.hanning(n), n * pad))
    k = int(np.argmax(spec[1:])) + 1
    if k + 1 < spec.size:
        a, b, c = np.log(spec[k - 1 : k + 2] + 1e-300)
        k = k + 0.5 * (a - c) / (a - 2.0 * b + c)
    return 2.0 * math.pi * k / (n * pad * dt)


# ------------------------------------------------------------- dynamics


def dense_trace(h, times):
    """<n1>(t) from |M,0> by dense eigh, all samples in one matrix product."""
    w, v = np.linalg.eigh(h.to_dense())
    c = v[0, :]
    keep = c**2 > REF_WEIGHT_FLOOR
    phases = np.exp(-1j * np.outer(w[keep], times)) * c[keep, None]
    amps = v[:, keep] @ phases
    n = np.arange(h.m_total + 1)
    return n @ (np.abs(amps) ** 2)


def trace_reference(bd, p):
    co = coefficients_at(bd, p["nbar"])
    m = p["m_total"]
    h = bd.build_h01(co, m)
    wp, c1, c2 = oscillation_law(co, m)
    period = 2.0 * math.pi / wp
    ref = {"coeffs": co, "omega_prime": wp, "c1": c1, "c2": c2}
    for samples, periods in zip(TRACE_SAMPLES, TRACE_PERIODS):
        times = np.linspace(0.0, periods * period, samples)
        ref[f"times_{samples}"] = times
        ref[f"trace_{samples}"] = dense_trace(h, times)
    return ref


def check_trace(out, ref):
    errs = check_coeffs(out["coeffs"], ref["coeffs"])
    for samples in TRACE_SAMPLES:
        got, want = out[f"trace_{samples}"], ref[f"trace_{samples}"]
        if got.shape != want.shape:
            errs.append(f"trace_{samples} has shape {got.shape}, want {want.shape}")
            continue
        t_dev = float(np.max(np.abs(out[f"times_{samples}"] - ref[f"times_{samples}"])))
        if t_dev > 1e-9 * ref[f"times_{samples}"][-1]:
            errs.append(f"times_{samples} off the law's period by {t_dev:.2e}")
        dev = float(np.max(np.abs(got - want))) / max(1.0, float(np.max(np.abs(want))))
        if not dev <= TRACE_TOL:
            errs.append(f"trace_{samples} vs dense eigh: {dev:.2e} > {TRACE_TOL:g}")
    wp, c1, c2 = ref["omega_prime"], ref["c1"], ref["c2"]
    t = out["times_401"]
    analytic = c1 * np.sin(wp * t) ** 2 + c2 * (np.cos(wp * t) - 1.0) ** 2
    law_dev = float(np.max(np.abs(out["trace_401"] - analytic))) / max(c1 + 4.0 * c2, 1e-3)
    if not law_dev <= LAW_DEV_TOL:
        errs.append(f"max|exact-analytic|/amplitude {law_dev:.3g} > {LAW_DEV_TOL}")
    freq = strongest_line(out["times_2048"], out["trace_2048"])
    freq_dev = abs(freq / (2.0 * wp) - 1.0)
    if not freq_dev <= FREQ_DEV_TOL:
        errs.append(f"dominant frequency vs 2w' {freq_dev:.3g} > {FREQ_DEV_TOL}")
    return errs


def evolve_reference(bd, p):
    from scipy import sparse
    from scipy.sparse.linalg import expm_multiply

    co = coefficients_at(bd, p["nbar"])
    wp, _, _ = oscillation_law(co, round(p["nbar"]))
    t = math.pi / wp
    h = bd.build_h01(co, p["m_total"])
    # The mean diagonal only adds a global phase; removing it keeps the
    # norm of t*H, and with it the work of expm_multiply, small.
    shifted = sparse.diags(
        [h.off2, h.off1, h.diag - np.mean(h.diag), h.off1, h.off2],
        [-2, -1, 0, 1, 2],
        format="csr",
    )
    start = np.zeros(h.m_total + 1, dtype=complex)
    start[0] = 1.0
    amps = expm_multiply(-1j * t * shifted, start)
    probs = np.abs(amps) ** 2
    n = np.arange(h.m_total + 1)
    return {"coeffs": co, "t": t, "probs": probs, "n1": float(n @ probs)}


def check_evolve(out, ref):
    errs = check_coeffs(out["coeffs"], ref["coeffs"])
    if _rel(out["t"], ref["t"]) > 1e-12:
        errs.append(f"evolution time {out['t']!r} vs pi/w' = {ref['t']!r}")
    probs = np.abs(out["amplitudes"]) ** 2
    if probs.shape != ref["probs"].shape:
        return errs + [f"state has {probs.size} amplitudes, want {ref['probs'].size}"]
    n1 = float(np.arange(probs.size) @ probs)
    if not _rel(n1, ref["n1"]) <= EVOLVE_TOL:
        errs.append(f"<n1> = {n1:.6g}, expm_multiply gives {ref['n1']:.6g}")
    l1 = float(np.sum(np.abs(probs - ref["probs"])))
    if not l1 <= EVOLVE_TOL:
        errs.append(f"occupation probabilities differ by {l1:.2e} in L1")
    return errs


# ------------------------------------------------------------- protocol


def kernel_matrix(bd, co, m_max, t):
    """K[m - j, m] = |<m - j, j| exp(-iHt) |m, 0>|^2 from dense eigh."""
    k = np.zeros((m_max + 1, m_max + 1))
    k[0, 0] = 1.0
    for m in range(1, m_max + 1):
        w, v = np.linalg.eigh(bd.build_h01(co, m).to_dense())
        amps = v @ (np.exp(-1j * w * t) * v[0, :])
        probs = np.abs(amps) ** 2
        k[m::-1, m] = probs / probs.sum()
    return k


def protocol_reference(bd, p):
    n0, m_max = p["n0"], p["m_max"]
    co = coefficients_at(bd, n0)
    wp, _, _ = oscillation_law(co, max(1, round(n0)))
    t = math.pi / wp
    k = kernel_matrix(bd, co, m_max, t)
    m = np.arange(m_max + 1)
    if "starts" in p:
        dist = np.zeros(m_max + 1)
        for s in p["starts"]:
            dist[s] += 1.0 / len(p["starts"])
    else:
        dist = np.exp(-0.5 * (m - n0) ** 2 / n0)
        dist /= dist.sum()
    means = [m @ dist]
    for _ in range(p["cycles"]):
        dist = k @ dist
        means.append(m @ dist)
    return {"n0": n0, "coeffs": co, "cycle_time": t, "means": np.array(means), "final": dist}


def check_protocol(out, ref):
    n0 = ref["n0"]
    errs = check_coeffs(out["coeffs"], ref["coeffs"])
    if _rel(out["cycle_time"], ref["cycle_time"]) > 1e-12:
        errs.append(f"cycle time {out['cycle_time']!r} vs pi/w' = {ref['cycle_time']!r}")
    final, means = out["final"], out["means"]
    drift = abs(float(np.sum(final)) - 1.0)
    if not drift <= PROTOCOL_TOL:
        errs.append(f"final distribution sums to 1 {drift:+.2e}")
    rise = float(np.max(np.diff(means)))
    if not rise <= PROTOCOL_TOL * n0:
        errs.append(f"mean rose by {rise:.2e} in one cycle")
    if final.shape != ref["final"].shape or means.shape != ref["means"].shape:
        return errs + ["trajectory or final distribution has the wrong length"]
    dev = float(np.max(np.abs(final - ref["final"])))
    if not dev <= PROTOCOL_TOL:
        errs.append(f"final distribution vs dense-eigh kernels: {dev:.2e}")
    mean_dev = float(np.max(np.abs(means - ref["means"])))
    if not mean_dev <= PROTOCOL_TOL * n0:
        errs.append(f"mean trajectory vs dense-eigh kernels: {mean_dev:.2e}")
    return errs


# -------------------------------------------------------------- cli_desk


def _flag(argv, name, default):
    return float(argv[argv.index(name) + 1]) if name in argv else default


def cli_reference(bd, job):
    """The numbers a request prints, computed through the library."""
    argv = job.params["argv"]
    kind = job.name
    nbar = _flag(argv, "--nbar", 1.0e5)
    n0 = _flag(argv, "--n0", 1.0e5)
    pp = bd.PhysicalParams(nbar=n0 if kind == "protocol" else nbar, n0=n0, **TRAP)
    dp = bd.to_dimensionless(pp)
    grid = bd.default_grid(dp)
    gm = bd.solve_gpe(dp, grid)
    m1 = bd.build_xi1(gm)
    co = bd.coefficients(gm, m1, dp)
    coeff_summary = {f: getattr(co, f) for f in ("alpha2", "alpha3", "alpha4", "beta", "gamma", "mu1", "mu", "g01")}
    if kind == "ground":
        tf = bd.thomas_fermi_mode(dp, grid)
        summary = {"mu": gm.mu, "nbar": gm.nbar, "residual": gm.residual, "iterations": gm.iterations}
        columns = {"r": grid.nodes, "xi0": gm.xi0.values, "xi0_tf": tf.xi0.values}
    elif kind == "modes":
        summary = coeff_summary
        columns = {"r": grid.nodes, "xi0": gm.xi0.values, "xi1": m1.xi1.values}
    elif kind == "figure1":
        summary = {"b_tf": dp.b_tf, "nbar": dp.nbar, "residual": gm.residual, **coeff_summary}
        columns = {"xi0_numeric": gm.xi0.values, "xi1": m1.xi1.values}
    elif kind == "bdg":
        spec = bd.solve_bdg(gm, dp, num_modes=8)
        dec = bd.decompose_mode1(m1, spec)
        summary = {
            "frequencies": list(spec.frequencies),
            "p": list(dec.p),
            "q": list(dec.q),
            "residual": dec.residual,
            "c_const": spec.c_const,
        }
        columns = {"omega_k": spec.frequencies, "p_k": dec.p, "q_k": dec.q}
    elif kind == "dynamics":
        m = round(nbar)
        law = bd.oscillation_law(co, m)
        times = np.linspace(0.0, 2.0 * math.pi / law.omega_prime, 401)
        trace = bd.mean_n1_trace(bd.build_h01(co, m), bd.fock_state(m, 0), times)
        summary = {"m_total": m, "c1": law.c1, "c2": law.c2, "omega_prime": law.omega_prime}
        columns = {"t": times, "n1_exact": trace, "n1_analytic": bd.mean_n1_analytic(law, times)}
    elif kind == "protocol":
        cycles = int(_flag(argv, "--cycles", 200))
        m_max = int(math.ceil(n0 + 6.0 * math.sqrt(n0)))
        cfg = bd.ProtocolConfig(n0=n0, coeffs=co, cycles=cycles, m_max=m_max)
        res = bd.run_protocol(bd.gaussian_distribution(n0, math.sqrt(n0), m_max), cfg)
        summary = {"m_max": m_max, **res.summary()}
        columns = {"mean": res.means, "retained_mass": res.retained_mass, "lost_mass": res.lost_mass}
    else:
        raise ValueError(f"unknown request kind {kind!r}")
    return {"summary": summary, "columns": columns}


def _close(got, want):
    return abs(got - want) <= CLI_ABS + CLI_REL * abs(want)


def check_cli(out, ref):
    if out["exit_code"] != 0:
        return [f"exit status {out['exit_code']}: {out['stderr'].strip()[-200:]}"]
    errs = []
    try:
        summary = json.loads(out["summary"])
        rows = list(csv.reader(io.StringIO(out["table"])))
    except (ValueError, csv.Error) as exc:
        return [f"unreadable output: {exc}"]
    for key, want in ref["summary"].items():
        got = summary.get(key)
        if isinstance(want, list):
            if not isinstance(got, list) or len(got) != len(want):
                errs.append(f"summary {key}: {got!r} vs {want!r}")
            elif not all(_close(g, w) for g, w in zip(got, want)):
                errs.append(f"summary {key} differs beyond {CLI_REL:g}")
        elif not isinstance(got, (int, float)) or not _close(got, float(want)):
            errs.append(f"summary {key}: {got!r} vs {want!r}")
    header, body = rows[0], rows[1:]
    for name, want in ref["columns"].items():
        if name not in header:
            errs.append(f"column {name} missing")
            continue
        col = np.array([float(r[header.index(name)]) for r in body])
        if col.shape != np.shape(want):
            errs.append(f"column {name} has {col.size} rows, want {np.size(want)}")
            continue
        scale = max(float(np.max(np.abs(want))), 1.0)
        dev = float(np.max(np.abs(col - want)))
        if not dev <= CLI_ABS + CLI_REL * scale:
            errs.append(f"column {name} off by {dev:.2e}")
    return errs
