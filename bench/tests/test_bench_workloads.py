"""Seeded inputs: reproducible, different across seeds, same size class."""

import workloads


def _params(workload, seed):
    return [(j.name, j.params) for j in workloads.make_jobs(workload, seed)]


def test_same_seed_gives_the_same_inputs():
    for w in workloads.WORKLOADS:
        assert _params(w, 7) == _params(w, 7)


def test_other_seeds_change_inputs_but_not_sizes():
    for w in workloads.WORKLOADS:
        runs = [_params(w, s) for s in range(20)]
        assert len({repr(r) for r in runs}) > 1
    for s in range(50):
        trace, evolve = workloads.make_jobs("dynamics", s)
        assert trace.params["m_total"] == 1000 and evolve.params["m_total"] == 5000
        assert abs(trace.params["nbar"] / 1000.0 - 1.0) <= 0.01
        assert abs(evolve.params["nbar"] / 1.0e4 - 1.0) <= 0.01
        bimodal, truncate = workloads.make_jobs("protocol", s)
        assert (bimodal.params["cycles"], bimodal.params["m_max"]) == (800, 130)
        assert (truncate.params["cycles"], truncate.params["m_max"]) == (200, 404)
        assert abs(bimodal.params["n0"] / 100.0 - 1.0) <= 0.02
        assert abs(truncate.params["n0"] / 300.0 - 1.0) <= 0.02


def test_cli_desk_is_a_rotation_of_the_six_requests():
    orders = set()
    for s in range(20):
        jobs = workloads.make_jobs("cli_desk", s)
        assert sorted(j.name for j in jobs) == sorted(workloads.CLI_REQUESTS)
        orders.add(tuple(j.name for j in jobs))
        for j in jobs:
            argv = j.params["argv"]
            if j.name in ("dynamics", "protocol"):
                nbar = float(argv[argv.index("--nbar") + 1])
                assert argv[argv.index("--n0") + 1] == argv[argv.index("--nbar") + 1]
                assert 98 <= nbar <= 102
            else:
                assert "--nbar" not in argv and "--n0" not in argv
    assert len(orders) > 1
