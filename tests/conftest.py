import sys

import pytest
from hypothesis import settings

import oracles

# Property tests run a fixed sequence of examples: no random seed, no
# wall-clock deadline and no example database carried between runs.
settings.register_profile("bogodense", derandomize=True, deadline=None, database=None)
settings.load_profile("bogodense")


@pytest.fixture(scope="session")
def fig1():
    """Reference-trap pipeline at nbar = 1e5 (the profile-figure scale)."""
    dp, grid, gm, m1, coeffs = oracles.solve_case(1.0e5)
    return {"dp": dp, "grid": grid, "gm": gm, "m1": m1, "coeffs": coeffs}


@pytest.fixture(scope="session")
def case1000():
    dp, grid, gm, m1, coeffs = oracles.solve_case(1.0e3)
    return {"dp": dp, "grid": grid, "gm": gm, "m1": m1, "coeffs": coeffs}


@pytest.fixture(scope="session")
def case100():
    dp, grid, gm, m1, coeffs = oracles.solve_case(100.0)
    return {"dp": dp, "grid": grid, "gm": gm, "m1": m1, "coeffs": coeffs}


def pytest_terminal_summary(terminalreporter):
    mod = sys.modules.get("test_acceptance")
    lines = getattr(mod, "REPORT", None)
    if lines:
        terminalreporter.write_sep("=", "acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
