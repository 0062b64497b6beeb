"""The checker accepts real outputs and rejects perturbed ones.

Jobs run here at small sizes (same code paths, seconds of work); the
benchmark itself runs them at the sizes in ``workloads``.
"""

import copy

import numpy as np
import pytest

import bogodense as bd
import references as ref
import workloads
from bogodense.cli import main as cli_main


@pytest.fixture(scope="module")
def trace_case():
    p = {"nbar": 100.0, "m_total": 100}
    return workloads.trace_job(bd, p), ref.trace_reference(bd, p)


def test_trace_check_accepts_the_library_and_rejects_a_perturbation(trace_case):
    out, want = trace_case
    assert ref.check_trace(out, want) == []
    bad = copy.deepcopy(out)
    bad["trace_2048"][1000] *= 1.0 + 1e-6
    assert any("trace_2048" in e for e in ref.check_trace(bad, want))
    shifted = copy.deepcopy(out)
    shifted["trace_401"] = np.roll(shifted["trace_401"], 40)
    assert ref.check_trace(shifted, want)


def test_evolve_reference_agrees_with_the_spectral_path():
    # Below the 4000 limit evolve_exact diagonalizes, which expm_multiply
    # must reproduce; a perturbed state must then be rejected.
    p = {"nbar": 1000.0, "m_total": 300}
    out = workloads.evolve_large_job(bd, p)
    want = ref.evolve_reference(bd, p)
    assert ref.check_evolve(out, want) == []
    bad = copy.deepcopy(out)
    bad["amplitudes"] = np.roll(bad["amplitudes"], 1)  # one more atom in mode 1
    assert any("<n1>" in e for e in ref.check_evolve(bad, want))


def test_protocol_check_accepts_the_library_and_rejects_a_perturbation():
    p = {"n0": 100.0, "cycles": 40, "m_max": 130, "starts": (80, 120)}
    out = workloads.protocol_job(bd, p)
    want = ref.protocol_reference(bd, p)
    assert ref.check_protocol(out, want) == []
    bad = copy.deepcopy(out)
    bad["final"][100] += 1e-7
    bad["final"][60] -= 1e-7
    assert any("final distribution" in e for e in ref.check_protocol(bad, want))
    rising = copy.deepcopy(out)
    rising["means"][5] = rising["means"][4] + 1.0
    assert any("mean rose" in e for e in ref.check_protocol(rising, want))


def test_cli_check_reads_numbers_not_bytes(tmp_path):
    job = workloads.Job("dynamics", {"argv": ["dynamics", "--nbar", "100", "--n0", "100"]})
    table = tmp_path / "out.csv"
    assert cli_main(job.params["argv"] + ["--output", str(table)]) == 0
    out = {
        "exit_code": 0,
        "stderr": "",
        "table": table.read_text(),
        "summary": table.with_suffix(".json").read_text(),
    }
    want = ref.cli_reference(bd, job)
    assert ref.check_cli(out, want) == []
    # Reformatting the same numbers is still a pass.
    reformatted = dict(out, summary=out["summary"].replace("\n", " "))
    assert ref.check_cli(reformatted, want) == []
    bad = dict(out, summary=out["summary"].replace('"m_total": 100', '"m_total": 101'))
    assert any("m_total" in e for e in ref.check_cli(bad, want))
    failed = dict(out, exit_code=1, stderr="error [config]: boom")
    assert ref.check_cli(failed, want) == ["exit status 1: error [config]: boom"]
