"""The benchmark's workloads: seeded inputs and the jobs that run them.

Every workload is a closed loop with one client: the next job starts when
the previous one has returned.  A pass runs the workload's job list once, in
order; a run repeats whole passes.  The seed fixes the inputs of a run: it
shuffles the order of the ``cli_desk`` requests and perturbs each job's
physics slightly (nbar or n0 by 1-2%) while its size class stays fixed, so
that outputs differ between seeds but the amount of work does not.

Jobs import nothing from the benchmark's references; they only call the
public API of ``bogodense`` (or its CLI), starting from ``PhysicalParams``.
"""

import math
import random
from dataclasses import dataclass

import numpy as np

# The reference trap: rubidium-87 mass, a_sc = 10 nm, nu = 1000 Hz.
TRAP = {"mass": 1.44e-25, "scattering_length": 1.0e-8, "trap_frequency": 1000.0}

WORKLOADS = {
    "cli_desk": (
        "one CLI request at a time as a fresh process: import and the "
        "mean-field stages dominate, two-mode and protocol work is small"
    ),
    "dynamics": (
        "one large two-mode Hamiltonian diagonalized and sampled many times, "
        "next to the stepped branch above the eigensolver limit"
    ),
    "protocol": (
        "many small two-mode eigensystems each evolved to one time: the "
        "cycle loop (bimodal) and kernel building (truncate) dominate"
    ),
}

# CLI request kinds of cli_desk, without the seeded physics flags.
CLI_REQUESTS = {
    "ground": ["ground", "--tf"],
    "modes": ["modes"],
    "figure1": ["figure1"],
    "bdg": ["bdg"],
    "dynamics": ["dynamics"],
    "protocol": ["protocol", "--cycles", "200"],
}

# Sizes that each job keeps for every seed.
TRACE_M = 1000  # criterion 2: M = 1000, 401 + 2048 samples
TRACE_SAMPLES = (401, 2048)
TRACE_PERIODS = (1, 8)
EVOLVE_M = 5000  # above the 4000 eigensolver limit: the stepped path
BIMODAL = {"cycles": 800, "m_max": 130, "starts": (80, 120)}  # criterion 5
TRUNCATE = {"cycles": 200, "m_max": 404}  # CLI default start at n0 = 300


@dataclass
class Job:
    name: str
    params: dict


def _jitter(rng, value, frac):
    return value * (1.0 + rng.uniform(-frac, frac))


def make_jobs(workload, seed):
    """The job list of one pass; the same seed gives the same list."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    if workload == "cli_desk":
        order = list(CLI_REQUESTS)
        rng.shuffle(order)
        # The reference-trap requests run at the CLI defaults (nbar = 1e5).
        # The desk-scale requests keep M = round(nbar) within 1% and n0
        # within 2%, on integers so that the flag text is exact.
        extra = {
            "dynamics": ["--nbar", str(rng.randint(99, 101))],
            "protocol": ["--n0", str(rng.randint(98, 102))],
        }
        extra["dynamics"] += ["--n0", extra["dynamics"][1]]
        extra["protocol"] += ["--nbar", extra["protocol"][1]]
        return [
            Job(kind, {"argv": CLI_REQUESTS[kind] + extra.get(kind, [])})
            for kind in order
        ]
    if workload == "dynamics":
        return [
            # M stays at 1000 (the eigensolver cost is cubic in M); nbar
            # moves within 1%, which moves w', the period and every sample.
            Job("trace", {"nbar": _jitter(rng, 1000.0, 0.01), "m_total": TRACE_M}),
            Job("evolve_large", {"nbar": _jitter(rng, 1.0e4, 0.01), "m_total": EVOLVE_M}),
        ]
    return [
        Job("bimodal", {"n0": _jitter(rng, 100.0, 0.02), **BIMODAL}),
        Job("truncate", {"n0": _jitter(rng, 300.0, 0.02), **TRUNCATE}),
    ]


# ------------------------------------------------------------------ jobs


def coefficients_at(bd, nbar):
    """PhysicalParams -> coupling coefficients through the public stages."""
    dp = bd.to_dimensionless(bd.PhysicalParams(nbar=nbar, n0=nbar, **TRAP))
    grid = bd.default_grid(dp)
    gm = bd.solve_gpe(dp, grid)
    m1 = bd.build_xi1(gm)
    return bd.coefficients(gm, m1, dp)


def trace_job(bd, p):
    co = coefficients_at(bd, p["nbar"])
    m = p["m_total"]
    law = bd.oscillation_law(co, m)
    h = bd.build_h01(co, m)
    period = 2.0 * math.pi / law.omega_prime
    out = {"omega_prime": law.omega_prime, "coeffs": co}
    for samples, periods in zip(TRACE_SAMPLES, TRACE_PERIODS):
        times = np.linspace(0.0, periods * period, samples)
        out[f"times_{samples}"] = times
        out[f"trace_{samples}"] = bd.mean_n1_trace(h, bd.fock_state(m, 0), times)
    return out


def evolve_large_job(bd, p):
    co = coefficients_at(bd, p["nbar"])
    law = bd.oscillation_law(co, round(p["nbar"]))
    t = math.pi / law.omega_prime
    h = bd.build_h01(co, p["m_total"])
    state = bd.evolve_exact(h, bd.fock_state(p["m_total"], 0), t)
    return {"t": t, "coeffs": co, "amplitudes": state.amplitudes}


def protocol_job(bd, p):
    co = coefficients_at(bd, p["n0"])
    cfg = bd.ProtocolConfig(n0=p["n0"], coeffs=co, cycles=p["cycles"], m_max=p["m_max"])
    if "starts" in p:
        init = bd.two_point_distribution(*p["starts"], m_max=p["m_max"])
    else:
        init = bd.gaussian_distribution(p["n0"], math.sqrt(p["n0"]), p["m_max"])
    res = bd.run_protocol(init, cfg)
    return {
        "coeffs": co,
        "cycle_time": res.cycle_time,
        "means": res.means,
        "final": res.final.probabilities,
    }


IN_PROCESS_JOBS = {
    "trace": trace_job,
    "evolve_large": evolve_large_job,
    "bimodal": protocol_job,
    "truncate": protocol_job,
}
